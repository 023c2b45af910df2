package silint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sian/internal/depgraph"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/pin.golden")

// pinTrees are the package trees whose extraction the pin golden
// records, relative to this package's directory.
var pinTrees = []string{
	"testdata/src/...",
	"fixtures/...",
	"../../examples/...",
	"../workload/silform/...",
}

// TestPinExtraction records everything extraction and diagnosis decide
// for every fixture, example and generated workload package — each
// transaction's sets, loop flag and widening sites, the notes in
// order, the widening count, and the diagnostics under every model
// with their fixes — and compares it with testdata/pin.golden. It pins
// the analyzer's observable output, so a refactoring of the extractor
// shows every behavioural drift as a golden diff. Rewrite the golden
// with go test -run TestPinExtraction -update.
func TestPinExtraction(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(pinTrees)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, pkg := range pkgs {
		pr, err := AnalyzePackage(pkg, []depgraph.Model{depgraph.SI, depgraph.PSI, depgraph.SER})
		if err != nil {
			t.Fatal(err)
		}
		pinPackage(&b, pkg, pr)
	}
	const golden = "testdata/pin.golden"
	if *updatePin {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s:%d differs\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}

// pinPackage renders one package report, with positions reduced to
// file base names so the golden does not depend on the checkout path.
func pinPackage(b *strings.Builder, pkg *Package, p *PackageReport) {
	fmt.Fprintf(b, "package %s\n", p.Path)
	for _, s := range p.Sessions {
		fmt.Fprintf(b, "  session %s multi=%v\n", s.Name, s.MultiInstance)
		for _, tx := range s.Txs {
			var sites []string
			for _, pos := range tx.WidenSites {
				at := pkg.Fset.Position(pos)
				sites = append(sites, fmt.Sprintf("%s:%d:%d", filepath.Base(at.Filename), at.Line, at.Column))
			}
			fmt.Fprintf(b, "    tx %s reads=%s writes=%s inloop=%v widen=[%s]\n",
				tx.Name, tx.Reads, tx.Writes, tx.InLoop, strings.Join(sites, " "))
		}
	}
	for _, n := range p.Notes {
		fmt.Fprintf(b, "  note %s\n", n)
	}
	fmt.Fprintf(b, "  widenings %d\n", p.Widenings)
	for _, d := range p.Diagnostics {
		fmt.Fprintf(b, "  diag %s:%d:%d %s tx=%s %s\n",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Tx, d.Message)
		for _, f := range d.Fixes {
			fmt.Fprintf(b, "    fix rank=%d obj=%s txs=%v at %s:%d:%d %s\n",
				f.Rank, f.Obj, f.Txs, filepath.Base(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Message)
			for _, e := range f.Edits {
				fmt.Fprintf(b, "      edit %s [%d,%d) %q\n", filepath.Base(e.Filename), e.Offset, e.End, e.NewText)
			}
		}
	}
}
