// Package silint statically analyses Go code written against the
// engine's transaction API and applies the paper's static snapshot
// isolation criteria at compile time.
//
// The pipeline has three stages. Extraction type-checks the target
// packages (standard library only: go/parser + go/types) and finds
// every Session.Transact/TransactNamed closure and Begin…Commit span,
// computing a sound over-approximation of each transaction's read and
// write sets: constant and constant-propagated keys resolve to named
// objects, anything else widens to ⊤ (a silint:obj=<name> annotation
// comment can assert the key instead). Lowering maps the extracted
// sessions to the robustness.App and chopping.Program IRs, with ⊤
// materialised over the package's object universe. Checking runs the
// static robustness analyses of §6 (Theorems 19 and 22) and the
// chopping analysis of §5 and Appendix B (Corollary 18, Theorems 29
// and 31), reporting every violation as a diagnostic anchored at the
// offending Transact/Begin call site with a witness cycle.
package silint

import (
	"fmt"
	"go/token"
	"slices"
	"sort"
	"strings"

	"sian/internal/chopping"
	"sian/internal/depgraph"
	"sian/internal/obs"
	"sian/internal/robustness"
)

// Options configures an analysis run.
type Options struct {
	// Dir anchors module discovery and relative patterns (default ".").
	Dir string
	// Models selects the consistency models to check (default SI).
	// SI runs Theorem 19 robustness and Corollary 18 chopping; PSI runs
	// Theorem 22 robustness and Theorem 31 chopping; SER runs Theorem
	// 29 chopping only.
	Models []depgraph.Model
	// Registry receives silint_* counters when non-nil.
	Registry *obs.Registry
	// Loader is reused when non-nil (sharing its type-check cache);
	// otherwise a fresh loader is created for Dir.
	Loader *Loader
}

// Diagnostic is one reported violation, anchored at a transaction's
// call site.
type Diagnostic struct {
	// Pos is the Transact/TransactNamed/Begin call position of the
	// first transaction on the witness cycle.
	Pos token.Position `json:"pos"`
	// Package is the import path of the analysed package.
	Package string `json:"package"`
	// Tx is the label of the anchoring transaction.
	Tx string `json:"tx"`
	// Check identifies the analysis, e.g. "robustness-si".
	Check string `json:"check"`
	// Category classifies the anomaly, e.g. "write-skew".
	Category string `json:"category"`
	// Theorem cites the paper result the check implements.
	Theorem string `json:"theorem"`
	// Witness renders the dangerous or critical cycle.
	Witness string `json:"witness"`
	// Message is the full human-readable diagnostic (without the
	// position prefix).
	Message string `json:"message"`
	// Fixes are the repair advisor's verified suggestions: read→write
	// promotions whose application makes the failed check pass. Fixes
	// sharing a Rank form one alternative and must be applied together.
	Fixes []SuggestedFix `json:"fixes,omitempty"`
}

// TextEdit is one byte-range replacement in a source file (End ==
// Offset for pure insertions).
type TextEdit struct {
	Filename string `json:"filename"`
	Offset   int    `json:"offset"`
	End      int    `json:"end"`
	NewText  string `json:"new_text"`
}

// SuggestedFix is one read→write promotion of a verified repair:
// promoting the read of Obj in the listed transaction instances
// materialises the racing conflict (§6), and the advisor has re-run
// the static check to confirm that the promoted application passes.
type SuggestedFix struct {
	// Obj is the object whose read is promoted.
	Obj string `json:"obj"`
	// Txs are the labels of the promoted transaction instances — the
	// loop-expanded copies of one source transaction promote together.
	Txs []string `json:"txs"`
	// Pos is the promoting transaction's call site.
	Pos token.Position `json:"pos"`
	// Rank groups the fixes of one repair alternative (1 is the
	// advisor's first choice); apply every fix of a rank together.
	Rank int `json:"rank"`
	// Message is the human-readable hint.
	Message string `json:"message"`
	// Edits insert a Promote stub into the transaction body when its
	// closure is statically visible (empty for manual Begin spans).
	Edits []TextEdit `json:"edits,omitempty"`
}

// String renders the diagnostic in file:line:col: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// PackageReport is the analysis result for one package.
type PackageReport struct {
	// Path is the package import path.
	Path string
	// Sessions are the extracted sessions (exposed for differential
	// soundness testing against recorded engine histories).
	Sessions []*Session
	// Diagnostics are the violations found, in check order.
	Diagnostics []Diagnostic
	// Notes are informational messages: ⊤-widenings, session identity
	// losses, and similar precision events.
	Notes []string
	// Widenings counts the ⊤-widening events of the extraction — zero
	// means every set was extracted exactly.
	Widenings int
}

// Report is the result of one Analyze call.
type Report struct {
	Packages []*PackageReport
}

// Anomalies counts diagnostics across all packages.
func (r *Report) Anomalies() int {
	n := 0
	for _, p := range r.Packages {
		n += len(p.Diagnostics)
	}
	return n
}

// Diagnostics flattens all package diagnostics in package order.
func (r *Report) Diagnostics() []Diagnostic {
	var out []Diagnostic
	for _, p := range r.Packages {
		out = append(out, p.Diagnostics...)
	}
	return out
}

// Analyze loads the packages matching the patterns and runs the
// selected static checks over every transaction session found.
func Analyze(patterns []string, opts Options) (*Report, error) {
	if _, err := ChecksFor(opts.Models); err != nil {
		return nil, err
	}
	l := opts.Loader
	if l == nil {
		dir := opts.Dir
		if dir == "" {
			dir = "."
		}
		var err error
		if l, err = NewLoader(dir); err != nil {
			return nil, err
		}
	}
	pkgs, err := l.Load(patterns)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	report := &Report{}
	for _, pkg := range pkgs {
		pr, err := AnalyzePackage(pkg, opts.Models)
		if err != nil {
			return nil, err
		}
		report.Packages = append(report.Packages, pr)
		reg.Counter("silint_packages_total").Inc()
		reg.Counter("silint_sessions_total").Add(int64(len(pr.Sessions)))
		for _, s := range pr.Sessions {
			reg.Counter("silint_txs_total").Add(int64(len(s.Txs)))
		}
		reg.Counter("silint_widened_sets_total").Add(int64(pr.Widenings))
		reg.Counter("silint_notes_total").Add(int64(len(pr.Notes)))
		reg.Counter("silint_anomalies_total").Add(int64(len(pr.Diagnostics)))
	}
	return report, nil
}

// Check is one row of the model → check table: a static criterion of
// the paper, selected by the consistency model it protects. Package
// mode runs the selected rows over a package's lowered sessions; spec
// mode runs them over a decoded app (robustness rows) or program set
// (chopping rows).
type Check struct {
	// Model is the consistency model whose selection runs the check.
	Model depgraph.Model
	// Name identifies the check in verdicts, e.g. "robustness-si".
	Name string
	// Category classifies a failure, e.g. "write-skew".
	Category string
	// Theorem cites the paper result the check implements.
	Theorem string
	// Under names the model a package diagnostic reports against.
	Under string
	// Robust decides a robustness check (§6) and Repair proposes its
	// verified promotions; both are nil for a chopping check (§5).
	Robust func(robustness.App) (*robustness.Witness, bool)
	Repair func(robustness.App, robustness.RepairOptions) []robustness.Repair
	// Level is a chopping check's criticality.
	Level chopping.Criticality
	// Label and Holds head a robustness check's spec-mode text lines.
	Label, Holds string
}

// checks is the table, in the order spec mode reports its rows.
var checks = []Check{
	{Model: depgraph.SER, Name: "chopping-ser", Category: "incorrect-chopping", Theorem: "Theorem 29, Appendix B",
		Under: "serialisability", Level: chopping.SERCritical},
	// Every SI-dangerous structure is a pair of adjacent vulnerable
	// anti-dependencies — the (generalised) write skew pattern of §2 —
	// so the category is uniform.
	{Model: depgraph.SI, Name: "robustness-si", Category: "write-skew", Theorem: "Theorem 19, §6.1",
		Under: "SI", Robust: robustness.CheckSIRobust, Repair: robustness.RepairAgainstSI,
		Label: "SI→SER", Holds: "running under SI gives only serializable behaviour"},
	{Model: depgraph.SI, Name: "chopping-si", Category: "incorrect-chopping", Theorem: "Corollary 18, §5",
		Under: "SI", Level: chopping.SICritical},
	{Model: depgraph.PSI, Name: "robustness-psi", Category: "long-fork", Theorem: "Theorem 22, §6.2",
		Under: "PSI (towards SI)", Robust: robustness.CheckPSIRobust, Repair: robustness.RepairAgainstPSI,
		Label: "PSI→SI", Holds: "running under parallel SI gives only SI behaviour"},
	{Model: depgraph.PSI, Name: "chopping-psi", Category: "incorrect-chopping", Theorem: "Theorem 31, Appendix B",
		Under: "PSI", Level: chopping.PSICritical},
}

// ChecksFor returns the table rows the models select (SI when none),
// in table order.
func ChecksFor(models []depgraph.Model) ([]Check, error) {
	if len(models) == 0 {
		models = []depgraph.Model{depgraph.SI}
	}
	for _, m := range models {
		if !slices.ContainsFunc(checks, func(c Check) bool { return c.Model == m }) {
			return nil, fmt.Errorf("silint: unsupported model %v", m)
		}
	}
	var out []Check
	for _, c := range checks {
		if slices.Contains(models, c.Model) {
			out = append(out, c)
		}
	}
	return out, nil
}

// AnalyzePackage runs extraction and the selected checks over one
// loaded package. It is the entry point shared by Analyze and the
// go vet unit driver: everything from extraction through the repair
// advisor happens here. Diagnostics are sorted by (position, check)
// for deterministic output.
func AnalyzePackage(pkg *Package, models []depgraph.Model) (*PackageReport, error) {
	rows, err := ChecksFor(models)
	if err != nil {
		return nil, err
	}
	e := newExtractor(pkg)
	e.extract()
	pr := &PackageReport{Path: pkg.ImportPath, Sessions: e.sessions, Notes: e.notes, Widenings: e.widenings}
	if err := diagnose(pkg, pr, rows); err != nil {
		return nil, fmt.Errorf("silint: %s: %w", pkg.ImportPath, err)
	}
	sort.SliceStable(pr.Diagnostics, func(i, j int) bool {
		a, b := pr.Diagnostics[i], pr.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return pr, nil
}

// diagnose lowers a package's sessions and runs every selected check,
// appending diagnostics to the report.
func diagnose(pkg *Package, pr *PackageReport, rows []Check) error {
	expanded := expandSessions(pr.Sessions)
	if len(expanded) == 0 {
		return nil
	}
	universe := universeOf(expanded)
	app, flat, groups := lowerApp(expanded, universe)
	programs := lowerPrograms(expanded, universe)

	for _, c := range rows {
		d := Diagnostic{Package: pkg.ImportPath, Check: c.Name, Category: c.Category, Theorem: c.Theorem}
		if c.Robust != nil {
			w, ok := c.Robust(app)
			if ok {
				continue
			}
			repairs := c.Repair(app, robustness.RepairOptions{})
			d.Pos = pkg.Fset.Position(flat[w.Steps[0].From].Pos)
			d.Tx = w.Labels[w.Steps[0].From]
			d.Witness = w.String()
			d.Message = fmt.Sprintf("%s: dangerous cycle %s — tx %s is not robust against %s (%s)",
				c.Category, d.Witness, d.Tx, c.Under, c.Theorem)
			d.Fixes = lowerRepairs(pkg, groups, repairs)
			if len(repairs) > 0 {
				d.Message += fmt.Sprintf(" — suggested fix: %s", repairs[0])
			}
		} else {
			v, err := chopping.CheckStatic(programs, c.Level)
			if err != nil {
				return err
			}
			if v.OK {
				continue
			}
			d.Pos = pkg.Fset.Position(flat[flatIndex(programs, v.IDs[v.Witness[0].From])].Pos)
			d.Tx = v.Graph.Label(v.Witness[0].From)
			d.Witness = v.Graph.DescribeCycle(v.Witness)
			d.Message = fmt.Sprintf("%s: critical cycle %s — session is not a correct chopping under %s (%s)",
				c.Category, d.Witness, c.Under, c.Theorem)
		}
		pr.Diagnostics = append(pr.Diagnostics, d)
	}
	return nil
}

// AnnotationFixes suggests // silint:obj= annotation templates at the
// ⊤-widening sites of d's anchoring transaction: naming the widened
// keys is the other way to defuse a spurious cycle, and often the only
// one when a widened write set blocks the repair advisor. Only the
// go vet output prints them, so silint's own output stays unchanged.
func AnnotationFixes(pkg *Package, pr *PackageReport, d Diagnostic) []SuggestedFix {
	base := strings.TrimSuffix(d.Tx, "@it2")
	var tx *Tx
	for _, s := range pr.Sessions {
		for _, t := range s.Txs {
			if t.Name == base {
				tx = t
			}
		}
	}
	if tx == nil {
		return nil
	}
	var out []SuggestedFix
	for _, site := range tx.WidenSites {
		f := pkg.Fset.File(site)
		if f == nil {
			continue
		}
		pos := f.Position(site)
		lineStart := f.Offset(f.LineStart(pos.Line))
		out = append(out, SuggestedFix{
			Pos:     pos,
			Message: fmt.Sprintf("assert the key widened at %s:%d with a silint:obj annotation (replace KEY with the object names)", pos.Filename, pos.Line),
			Edits:   []TextEdit{{Filename: pos.Filename, Offset: lineStart, End: lineStart, NewText: "// silint:obj=KEY\n"}},
		})
	}
	return out
}

// lowerRepairs renders the advisor's verified repairs as suggested
// fixes: one SuggestedFix per promotion, rank-grouped per repair, with
// a textual Promote-stub edit when the promoting transaction's closure
// is statically visible.
func lowerRepairs(pkg *Package, groups map[string]*Tx, repairs []robustness.Repair) []SuggestedFix {
	var out []SuggestedFix
	for ri, r := range repairs {
		for _, p := range r.Promotions {
			tx := groups[p.Group]
			if tx == nil {
				continue
			}
			fix := SuggestedFix{
				Obj:     string(p.Obj),
				Txs:     p.Txs,
				Pos:     pkg.Fset.Position(tx.Pos),
				Rank:    ri + 1,
				Message: p.String(),
			}
			if tx.FixInsert.IsValid() && tx.Handle != "" {
				ip := pkg.Fset.Position(tx.FixInsert)
				fix.Edits = []TextEdit{{
					Filename: ip.Filename,
					Offset:   ip.Offset,
					End:      ip.Offset,
					NewText: fmt.Sprintf("\n\tif err := %s.Promote(%q); err != nil {\n\t\treturn err\n\t}",
						tx.Handle, string(p.Obj)),
				}}
			}
			out = append(out, fix)
		}
	}
	return out
}

// flatIndex maps a chopping PieceID back to the session-major flat
// transaction index shared with lowerApp.
func flatIndex(programs []chopping.Program, id chopping.PieceID) int {
	n := 0
	for i := 0; i < id.Program; i++ {
		n += len(programs[i].Pieces)
	}
	return n + id.Piece
}
