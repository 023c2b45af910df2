package depgraph

import (
	"strings"
	"testing"

	"sian/internal/model"
)

// TestPCAndGSIMemberships exercises the extension-model composites on
// the in-package figure graphs.
func TestPCAndGSIMemberships(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name    string
		g       *Graph
		pc, gsi bool
	}{
		{"lost update", lostUpdate(), true, false},
		{"write skew", writeSkew(), true, true},
		{"long fork", longFork(), false, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.InModel(PC) == nil; got != tc.pc {
				t.Errorf("InPC = %v, want %v (%v)", got, tc.pc, tc.g.InModel(PC))
			}
			if got := tc.g.InModel(GSI) == nil; got != tc.gsi {
				t.Errorf("InGSI = %v, want %v (%v)", got, tc.gsi, tc.g.InModel(GSI))
			}
		})
	}
	if PC.String() != "PC" || GSI.String() != "GSI" {
		t.Error("extension model strings broken")
	}
}

// TestExtensionWitnesses: the long fork yields a PC witness cycle; the
// lost update a GSI one.
func TestExtensionWitnesses(t *testing.T) {
	t.Parallel()
	if w := longFork().Witness(PC); len(w) < 2 {
		t.Errorf("PC witness = %v", w)
	}
	if w := lostUpdate().Witness(GSI); len(w) < 2 {
		t.Errorf("GSI witness = %v", w)
	}
	if w := writeSkew().Witness(PC); w != nil {
		t.Errorf("unexpected PC witness %v", w)
	}
}

// TestGSIIgnoresSessionOrder: a same-session stale read is a GSI
// member but violates SI purely through SO.
func TestGSIIgnoresSessionOrder(t *testing.T) {
	t.Parallel()
	h := model.NewHistory(
		sess("init", tx("init", model.Write("x", 0))),
		sess("s", tx("T1", model.Write("x", 1)), tx("T2", model.Read("x", 0))),
	)
	g := New(h)
	g.AddWW("x", 0, 1)
	g.AddWR("x", 0, 2)
	if g.InModel(GSI) != nil {
		t.Errorf("stale session read outside GraphGSI: %v", g.InModel(GSI))
	}
	if g.InModel(SI) == nil {
		t.Error("stale session read inside GraphSI")
	}
	err := g.InModel(SI)
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("SI rejection reason: %v", err)
	}
}
