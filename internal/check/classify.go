package check

import (
	"fmt"

	"sian/internal/depgraph"
	"sian/internal/model"
)

// Anomaly names the weakest-model boundary a history sits on: the
// class of behaviour that must be given up to admit it.
type Anomaly int

// Anomaly classes, ordered from benign to exotic. The names follow the
// paper's Figure 2 taxonomy; each class is defined by the membership
// vector across the model lattice rather than by syntactic pattern
// matching, so it is exact.
const (
	AnomalyInvalid Anomaly = iota
	// Serializable: allowed by every model.
	Serializable
	// WriteSkew: SI-allowed but not serializable — the Figure 2(d)
	// class (two adjacent anti-dependencies).
	WriteSkew
	// LongFork: PSI-allowed but not SI-allowed — the Figure 2(c)
	// class (non-adjacent anti-dependencies, PREFIX violation).
	LongFork
	// LostUpdate: PC-allowed but not PSI-allowed — the Figure 2(b)
	// class (NOCONFLICT violation).
	LostUpdate
	// StaleSessionRead: GSI-allowed but outside every strong-session
	// model — a SESSION violation.
	StaleSessionRead
	// Inconsistent: outside every supported model (including an INT
	// violation or an unreadable value).
	Inconsistent
)

// String names the anomaly class.
func (a Anomaly) String() string {
	switch a {
	case Serializable:
		return "serializable"
	case WriteSkew:
		return "write skew (SI, not SER)"
	case LongFork:
		return "long fork (PSI, not SI)"
	case LostUpdate:
		return "lost update (PC, not PSI)"
	case StaleSessionRead:
		return "stale session read (GSI only)"
	case Inconsistent:
		return "inconsistent (no supported model)"
	default:
		return fmt.Sprintf("Anomaly(%d)", int(a))
	}
}

// Report is the outcome of Classify.
type Report struct {
	// Membership per model.
	Membership map[depgraph.Model]bool
	// Anomaly is the boundary class (see the Anomaly constants).
	Anomaly Anomaly
	// Results carries the underlying per-model certification results
	// (witness graphs for members, rejection graphs where available).
	Results map[depgraph.Model]*Result
}

// Classify certifies the history against the full model lattice and
// names the anomaly class of the weakest boundary it crosses.
func Classify(h *model.History, opts Options) (*Report, error) {
	models := depgraph.Models()
	results, err := CertifyAll(h, models, opts)
	if err != nil {
		return nil, err
	}
	member := make(map[depgraph.Model]bool, len(models))
	for m, r := range results {
		member[m] = r != nil && r.Member
	}
	rep := &Report{Membership: member, Results: results}
	switch {
	case member[depgraph.SER]:
		rep.Anomaly = Serializable
	case member[depgraph.SI]:
		rep.Anomaly = WriteSkew
	case member[depgraph.PSI]:
		rep.Anomaly = LongFork
	case member[depgraph.PC]:
		rep.Anomaly = LostUpdate
	case member[depgraph.GSI]:
		rep.Anomaly = StaleSessionRead
	default:
		rep.Anomaly = Inconsistent
	}
	return rep, nil
}
