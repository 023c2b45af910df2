package silint

import (
	"strings"
	"testing"

	"sian/internal/depgraph"
)

// TestChecksFor pins the model → check table: each model selects its
// rows in table order (SER's chopping first, as spec mode reports
// them), SI is the default, and a model without rows is refused.
func TestChecksFor(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		models []depgraph.Model
		want   string
	}{
		{nil, "robustness-si chopping-si"},
		{[]depgraph.Model{depgraph.PSI}, "robustness-psi chopping-psi"},
		{[]depgraph.Model{depgraph.SER}, "chopping-ser"},
		{[]depgraph.Model{depgraph.SI, depgraph.PSI, depgraph.SER},
			"chopping-ser robustness-si chopping-si robustness-psi chopping-psi"},
	} {
		rows, err := ChecksFor(c.models)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, r := range rows {
			names = append(names, r.Name)
			if r.Level == 0 || r.Theorem == "" || r.Category == "" {
				t.Errorf("row %+v is incomplete", r)
			}
		}
		if got := strings.Join(names, " "); got != c.want {
			t.Errorf("ChecksFor(%v) = %s, want %s", c.models, got, c.want)
		}
	}
	if _, err := ChecksFor([]depgraph.Model{depgraph.GSI}); err == nil {
		t.Error("GSI accepted")
	}
}

// analyzeOne loads one testdata package and analyses it under SI.
func analyzeOne(t *testing.T, pattern string) (*Package, *PackageReport) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{pattern})
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("loading %s: %d packages, %v", pattern, len(pkgs), err)
	}
	pr, err := AnalyzePackage(pkgs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs[0], pr
}

// TestAnnotationFixes: when the anchoring transaction was ⊤-widened,
// the go vet output suggests a silint:obj annotation template at the
// widening site, as a pure insertion; an exactly extracted anchor gets
// none.
func TestAnnotationFixes(t *testing.T) {
	t.Parallel()
	pkg, pr := analyzeOne(t, "testdata/src/widenwrites")
	var annot []SuggestedFix
	for _, d := range pr.Diagnostics {
		annot = append(annot, AnnotationFixes(pkg, pr, d)...)
	}
	if len(annot) == 0 {
		t.Fatal("no annotation fix suggested for the widened anchor")
	}
	for _, f := range annot {
		if !strings.Contains(f.Message, "silint:obj annotation") || len(f.Edits) != 1 {
			t.Fatalf("annotation fix = %+v", f)
		}
		if e := f.Edits[0]; e.Offset != e.End || !strings.Contains(e.NewText, "silint:obj=") {
			t.Errorf("annotation edit = %+v, want an insertion of a silint:obj= line", e)
		}
	}

	pkg, pr = analyzeOne(t, "testdata/src/writeskew")
	if len(pr.Diagnostics) == 0 {
		t.Fatal("no diagnostics for the write-skew fixture")
	}
	for _, d := range pr.Diagnostics {
		if fixes := AnnotationFixes(pkg, pr, d); len(fixes) != 0 {
			t.Errorf("exact anchor %s got annotation fixes %+v", d.Tx, fixes)
		}
	}
}

// TestAnalyzePackageWriteSkew: the SI checks report the Figure 2(d)
// write skew, anchored in its source file, with the repair advisor's
// promotion fix attached as a text edit.
func TestAnalyzePackageWriteSkew(t *testing.T) {
	t.Parallel()
	_, pr := analyzeOne(t, "testdata/src/writeskew")
	if len(pr.Diagnostics) == 0 {
		t.Fatal("no diagnostics for the write-skew fixture")
	}
	d := pr.Diagnostics[0]
	if d.Category != "write-skew" || !strings.Contains(d.Theorem, "Theorem 19") || !strings.Contains(d.Message, "Theorem 19") {
		t.Errorf("diagnostic = %+v", d)
	}
	if d.Pos.Line == 0 || !strings.HasSuffix(d.Pos.Filename, "main.go") {
		t.Errorf("diagnostic not anchored: %+v", d.Pos)
	}
	var promote *SuggestedFix
	for i, f := range d.Fixes {
		if strings.Contains(f.Message, "promote read of") {
			promote = &d.Fixes[i]
			break
		}
	}
	if promote == nil {
		t.Fatalf("no promotion fix among %+v", d.Fixes)
	}
	if len(promote.Edits) == 0 || !strings.Contains(promote.Edits[0].NewText, ".Promote(") {
		t.Errorf("promotion fix edits = %+v", promote.Edits)
	}
}

// TestAnalyzePackageClean: a robust package yields no diagnostics.
func TestAnalyzePackageClean(t *testing.T) {
	t.Parallel()
	_, pr := analyzeOne(t, "fixtures/banking")
	if len(pr.Diagnostics) != 0 {
		t.Errorf("diagnostics on clean package: %+v", pr.Diagnostics)
	}
}
