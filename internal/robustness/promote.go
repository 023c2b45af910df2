// Read→write promotion search: the automatic remedy of §6.
//
// A failing §6 check's witness is a dangerous cycle through vulnerable
// anti-dependency edges. The paper's fix *materialises the conflict*:
// promote a read on one of those edges to a write of the same object,
// so the racing pair gains a write-write conflict and the edge stops
// being vulnerable. Repairs searches for minimal sets of such
// promotions, re-verifying each by the full static check.
package robustness

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"sian/internal/chopping"
	"sian/internal/model"
)

// Promotion is one suggested read→write promotion: in every
// transaction of Group (TxSpec.PromoteGroup, or a per-vertex key for
// ungrouped specifications), whose labels are Txs, the read of Obj is
// promoted to also write Obj (read the value, write it back —
// engine.Tx.Promote).
type Promotion struct {
	Group string
	Txs   []string
	Obj   model.Obj
}

// String renders e.g. `promote read of "total" in tx withdraw1`.
func (p Promotion) String() string {
	return fmt.Sprintf("promote read of %q in tx %s", string(p.Obj), strings.Join(p.Txs, ", "))
}

// Repair is one verified fix: applying every listed promotion makes
// the failed static check pass.
type Repair struct{ Promotions []Promotion }

// String renders the promotions joined by "; ".
func (r Repair) String() string {
	parts := make([]string, len(r.Promotions))
	for i, p := range r.Promotions {
		parts[i] = p.String()
	}
	return strings.Join(parts, "; ")
}

// The bounds of the promotion search.
const (
	maxPromotions = 3   // size cap of a suggested promotion set
	maxRepairs    = 3   // verified repairs returned
	maxChecks     = 512 // candidate applications re-verified before giving up
)

// promKey identifies a promotion candidate.
type promKey struct {
	group string
	obj   model.Obj
}

// groupKeyOf returns the promotion group of the vertex-th
// specification: its PromoteGroup, or a per-vertex key.
func groupKeyOf(spec TxSpec, vertex int) string {
	if spec.PromoteGroup != "" {
		return spec.PromoteGroup
	}
	return fmt.Sprintf("#%d", vertex)
}

// applyPromotions returns a copy of app in which each transaction of a
// promoted group also reads and writes the promoted object.
func applyPromotions(app App, set []promKey) App {
	out, v := App{Sessions: make([]SessionSpec, len(app.Sessions))}, 0
	for i, s := range app.Sessions {
		out.Sessions[i] = SessionSpec{Name: s.Name, Txs: slices.Clone(s.Txs)}
		for j := range s.Txs {
			t := &out.Sessions[i].Txs[j]
			for _, p := range set {
				if p.group == groupKeyOf(*t, v) {
					t.Reads = model.NormalizeObjs(append(slices.Clip(t.Reads), p.obj))
					t.Writes = model.NormalizeObjs(append(slices.Clip(t.Writes), p.obj))
				}
			}
			v++
		}
	}
	return out
}

// candidatesOf derives the promotion candidates of a witness cycle:
// each object in Reads(From) ∩ Writes(To) of an edge From -RW*-> To,
// unless an endpoint is widened — no promotion makes a concrete
// conflict with a may-write set.
func candidatesOf(app App, w *chopping.Witness) []promKey {
	specs, _ := flatten(app)
	var out []promKey
	for _, s := range w.Cycle {
		from, to := specs[s.From], specs[s.To]
		if s.Kind != chopping.KindRW || from.WritesWidened || to.WritesWidened {
			continue
		}
		for _, x := range from.Reads {
			if k := (promKey{groupKeyOf(from, s.From), x}); slices.Contains(to.Writes, x) && !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	return out
}

// Repairs searches for minimal promotion sets that make the static
// check at crit (see Check) pass. w0 is the witness Check(app, crit)
// returned: the caller has already run that check, and the search
// starts from its cycle instead of running it again. It returns
// verified repairs ranked smallest first (ties broken
// lexicographically), or nil when w0 is nil (the application passes)
// or no repair exists within the bounds.
//
// The search is breadth-first: level k extends each failing set of k-1
// promotions by a candidate from its own witness cycle, and the first
// level with a verified repair is the last, so repairs are minimal.
// Each set is verified by the full static check of the promoted
// application; one whose re-check is inconclusive is neither reported
// nor extended.
func Repairs(app App, crit chopping.Criticality, w0 *chopping.Witness) []Repair {
	if w0 == nil {
		return nil
	}
	type node struct {
		set     []promKey // sorted
		app     App       // app with set applied; witness indexes its vertices
		witness *chopping.Witness
	}
	frontier, visited, checks := []node{{app: app, witness: w0}}, map[string]bool{}, 0
	var found [][]promKey
	for level := 1; level <= maxPromotions && len(found) == 0 && len(frontier) > 0; level++ {
		var next []node
		for _, n := range frontier {
			for _, cand := range candidatesOf(n.app, n.witness) {
				set := append(slices.Clone(n.set), cand)
				slices.SortFunc(set, func(p, q promKey) int {
					return cmp.Or(strings.Compare(p.group, q.group), strings.Compare(string(p.obj), string(q.obj)))
				})
				key := fmt.Sprintf("%q", set)
				if visited[key] {
					continue
				}
				visited[key] = true
				if checks++; checks > maxChecks {
					return repairsFrom(app, found)
				}
				promoted := applyPromotions(app, set)
				switch w, err := Check(promoted, crit); {
				case err != nil:
				case w == nil:
					found = append(found, set)
				default:
					next = append(next, node{set: set, app: promoted, witness: w})
				}
			}
		}
		frontier = next
	}
	return repairsFrom(app, found)
}

// repairsFrom materialises and ranks the found promotion sets.
func repairsFrom(app App, found [][]promKey) []Repair {
	specs, _ := flatten(app)
	var out []Repair
	for _, set := range found {
		var r Repair
		for _, p := range set {
			var txs []string
			for v, spec := range specs {
				if groupKeyOf(spec, v) == p.group {
					txs = append(txs, labelOf(spec, v))
				}
			}
			r.Promotions = append(r.Promotions, Promotion{Group: p.group, Txs: txs, Obj: p.obj})
		}
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Repair) int {
		return cmp.Or(cmp.Compare(len(a.Promotions), len(b.Promotions)), strings.Compare(a.String(), b.String()))
	})
	return out[:min(len(out), maxRepairs)]
}
