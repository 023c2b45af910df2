package silint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"sian/internal/depgraph"
)

// widenSites renders a transaction's widening sites as file:line.
func widenSites(pkg *Package, tx *Tx) string {
	var out []string
	for _, p := range tx.WidenSites {
		pos := pkg.Fset.Position(p)
		out = append(out, fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line))
	}
	return strings.Join(out, " ")
}

// TestHelperCallAnnotation: a key passed to a helper resolves like a
// key read in the body. An annotation on the helper call asserts it;
// without one the set widens, and the call passing the key is the
// widening site. At a call passing two keys the annotation narrows only
// the one that would be ⊤, and an annotation after code does not reach
// the next line. A key the helper cannot resolve itself records the
// operation inside the helper.
func TestHelperCallAnnotation(t *testing.T) {
	t.Parallel()
	pkg, pr := analyzeOne(t, "testdata/helperannot")
	txs := make(map[string]*Tx)
	for _, s := range pr.Sessions {
		for _, tx := range s.Txs {
			txs[tx.Name] = tx
		}
	}
	for _, c := range []struct {
		name, reads, writes, sites string
	}{
		{"annotated", "{a, b}", "{}", ""},
		{"bare", "⊤", "{}", "main.go:31"},
		{"move", "{a, b}", "{total}", ""},
		{"trailing", "{a, b}", "⊤", "main.go:39"},
		{"oplog", "{a, b}", "⊤", "main.go:43"},
		{"inner", "⊤", "{}", "main.go:57"},
	} {
		tx := txs[c.name]
		if tx == nil {
			t.Fatalf("no transaction %s", c.name)
		}
		if got := tx.Reads.String(); got != c.reads {
			t.Errorf("%s: reads = %s, want %s", c.name, got, c.reads)
		}
		if got := tx.Writes.String(); got != c.writes {
			t.Errorf("%s: writes = %s, want %s", c.name, got, c.writes)
		}
		if got := widenSites(pkg, tx); got != c.sites {
			t.Errorf("%s: widening sites = %q, want %q", c.name, got, c.sites)
		}
	}
	if pr.Widenings != 4 || len(pr.Notes) != 4 || !strings.HasPrefix(pr.Notes[0], "main.go:31:14: object key k ") {
		t.Errorf("widenings = %d, notes = %q", pr.Widenings, pr.Notes)
	}
}

// TestAnnotationFixesAnchor: the annotation template names the
// widening site of the transaction a diagnostic is anchored at, even
// when an exactly extracted transaction in another session shares its
// name, and for chopping diagnostics, whose labels are session:piece.
func TestAnnotationFixesAnchor(t *testing.T) {
	t.Parallel()
	pkg, _ := analyzeOne(t, "testdata/sametxname")
	pr, err := AnalyzePackage(pkg, []depgraph.Model{depgraph.SI, depgraph.SER})
	if err != nil {
		t.Fatal(err)
	}
	checks := make(map[string]bool)
	for _, d := range pr.Diagnostics {
		checks[d.Check] = true
		if d.Pos.Line != 22 {
			t.Errorf("%s anchored at %s, want the widened t at main.go:22", d.Check, d.Pos)
		}
		fixes := AnnotationFixes(pkg, pr, d)
		if len(fixes) != 1 || fixes[0].Pos.Line != 24 {
			t.Errorf("%s (tx %s): annotation fixes %+v, want one at the widened read, main.go:24", d.Check, d.Tx, fixes)
		}
	}
	if !checks["robustness-si"] || !checks["chopping-si"] {
		t.Errorf("checks reported: %v, want robustness-si and chopping-si", checks)
	}
}
