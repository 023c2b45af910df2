package main

import (
	"errors"
	"fmt"
	"math/rand"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs/eventlog"
)

// certifySizes fixes the certify workload's inputs. H_off feeds
// check.Certify (which refuses more than 64 writers per object, hence
// the wide key space); H_on feeds the online monitor at Window 62 and
// is deliberately hot, so version chains are long and the window
// collapses many times.
type certifySizes struct {
	offTxns, offSessions, offObjects int
	onCommits, onSessions            int
	onHot, onCold                    int
}

var fullCertifySizes = certifySizes{
	offTxns: 1000, offSessions: 4, offObjects: 2048,
	onCommits: 4000, onSessions: 4, onHot: 4, onCold: 60,
}

// smokeCertifySizes keeps each Certify call and monitor pass in the
// tens of milliseconds, for tests.
var smokeCertifySizes = certifySizes{
	offTxns: 150, offSessions: 4, offObjects: 512,
	onCommits: 400, onSessions: 4, onHot: 4, onCold: 60,
}

// certifyInputs are the two fixed histories the certify workload
// judges. Both come out of a real SI engine driven from one goroutine,
// so equal seeds give byte-identical inputs.
type certifyInputs struct {
	hOff *model.History   // committed transactions, init session first
	hOn  []eventlog.Event // begin/read/write/commit/conflict stream
	// onCommits counts the Commit events in hOn that carry operations
	// (the initialising commit included): what the monitor judges.
	onCommits int
}

// interleaver drives several sessions' manual transactions from one
// goroutine in an order chosen by rng: at every step one session either
// begins, performs its next operation, or commits. Snapshots therefore
// genuinely overlap and first-committer-wins conflicts happen — and
// repeat exactly for a given seed. A transaction that loses is dropped,
// not retried.
type interleaver struct {
	rng      *rand.Rand
	sessions []*engine.Session
	open     []*engine.ManualTx
	plan     [][]planOp // remaining operations of each open transaction
	next     model.Value
}

// planOp is one step of a planned transaction: a plain read, or a
// read-modify-write (read then write a fresh value).
type planOp struct {
	obj model.Obj
	rmw bool
}

func newInterleaver(db *engine.DB, rng *rand.Rand, sessions int) *interleaver {
	il := &interleaver{rng: rng, open: make([]*engine.ManualTx, sessions), plan: make([][]planOp, sessions)}
	for i := 0; i < sessions; i++ {
		il.sessions = append(il.sessions, db.Session(fmt.Sprintf("c%d", i)))
	}
	return il
}

// run steps the sessions until commits transactions have committed,
// drawing each new transaction's operations from gen.
func (il *interleaver) run(commits int, gen func(rng *rand.Rand) []planOp) error {
	done := 0
	for done < commits {
		s := il.rng.Intn(len(il.sessions))
		tx := il.open[s]
		if tx == nil {
			tx, err := il.sessions[s].Begin("")
			if err != nil {
				return err
			}
			il.open[s], il.plan[s] = tx, gen(il.rng)
			continue
		}
		if len(il.plan[s]) > 0 {
			op := il.plan[s][0]
			il.plan[s] = il.plan[s][1:]
			if _, err := tx.Read(op.obj); err != nil {
				return err
			}
			if op.rmw {
				// Every written value is globally fresh, so reads stay
				// traceable to exactly one writer.
				il.next++
				if err := tx.Write(op.obj, il.next); err != nil {
					return err
				}
			}
			continue
		}
		il.open[s] = nil
		switch err := tx.Commit(); {
		case err == nil:
			done++
		case errors.Is(err, engine.ErrConflict):
		default:
			return err
		}
	}
	// Whatever is still open never committed; roll it back so the event
	// stream closes every attempt it opened.
	for s, tx := range il.open {
		if tx != nil {
			tx.Abort()
			il.open[s] = nil
		}
	}
	return nil
}

func keyName(prefix string, i int) model.Obj { return model.Obj(fmt.Sprintf("%s%04d", prefix, i)) }

func initValues(prefix string, n int) map[model.Obj]model.Value {
	vals := make(map[model.Obj]model.Value, n)
	for i := 0; i < n; i++ {
		vals[keyName(prefix, i)] = 0
	}
	return vals
}

// genCertifyInputs builds H_off and H_on for a seed.
func genCertifyInputs(seed int64, sz certifySizes) (*certifyInputs, error) {
	in := &certifyInputs{}

	// H_off: 2 reads + 2 read-modify-writes over a wide key space.
	db, err := engine.New(engine.SI, engine.Config{})
	if err != nil {
		return nil, err
	}
	if err := db.Initialize(initValues("o", sz.offObjects)); err != nil {
		return nil, err
	}
	il := newInterleaver(db, rand.New(rand.NewSource(seed)), sz.offSessions)
	err = il.run(sz.offTxns, func(rng *rand.Rand) []planOp {
		ops := make([]planOp, 4)
		for i, k := range rng.Perm(sz.offObjects)[:4] {
			ops[i] = planOp{obj: keyName("o", k), rmw: i >= 2}
		}
		return ops
	})
	if err != nil {
		return nil, fmt.Errorf("generating H_off: %w", err)
	}
	in.hOff = db.History()
	if err := db.Close(); err != nil {
		return nil, err
	}

	// H_on: one hot read-modify-write plus one cold one, recorded as
	// the flight-recorder event stream the monitor consumes.
	// The recorder splits its capacity over 8 rings keyed by session
	// hash, so size every ring for the whole stream (≤ 6 events per
	// attempt, conflicts included); a drop fails the generation below.
	rec := eventlog.NewRecorder(8 * 16 * (sz.onCommits + sz.onHot + sz.onCold))
	db, err = engine.New(engine.SI, engine.Config{Recorder: rec})
	if err != nil {
		return nil, err
	}
	vals := initValues("h", sz.onHot)
	for k, v := range initValues("k", sz.onCold) {
		vals[k] = v
	}
	if err := db.Initialize(vals); err != nil {
		return nil, err
	}
	il = newInterleaver(db, rand.New(rand.NewSource(seed^0x5DEECE66D)), sz.onSessions)
	err = il.run(sz.onCommits, func(rng *rand.Rand) []planOp {
		return []planOp{
			{obj: keyName("h", rng.Intn(sz.onHot)), rmw: true},
			{obj: keyName("k", rng.Intn(sz.onCold)), rmw: true},
		}
	})
	if err != nil {
		return nil, fmt.Errorf("generating H_on: %w", err)
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if d := rec.Dropped(); d > 0 {
		return nil, fmt.Errorf("generating H_on: recorder dropped %d events", d)
	}
	in.hOn = rec.Events()
	for i := range in.hOn {
		// Wall-clock stamps are the only nondeterministic field; the
		// monitor uses them for its lag histogram alone.
		in.hOn[i].TS = 0
		if in.hOn[i].Kind == eventlog.Commit {
			in.onCommits++
		}
	}
	return in, nil
}
