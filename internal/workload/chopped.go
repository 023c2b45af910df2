package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"sian/internal/chopping"
	"sian/internal/engine"
	"sian/internal/model"
)

// ChoppedRunConfig parameterises RunChoppedPrograms.
type ChoppedRunConfig struct {
	// Rounds runs every program Rounds times in its session
	// (sequentially within the session, concurrently across sessions).
	Rounds int
	// Seed drives the per-session interleaving jitter.
	Seed int64
}

// RunChoppedPrograms executes a chopped application (§5) on a
// database: every execution of a program becomes one session issuing
// the program's pieces in order as separate transactions (the paper's
// one-to-one correspondence between sessions and programs — a session
// is the chopping of a single original transaction), concurrently with
// the other programs, following the paper's client assumptions
// (conflict-aborted pieces are resubmitted until they commit; clients
// never abort). Each piece reads its whole read set and writes
// globally unique values to its whole write set, making the recorded
// history value-traceable for certification. With Rounds > 1 each
// program is executed Rounds times, each execution in a fresh session
// (sequentially per program, concurrently across programs); note that
// the static analysis then needs Rounds concurrent copies of each
// program to over-approximate the run (chopping.Replicate).
//
// The database must be fresh; every object mentioned by any piece is
// initialised to 0. The recorded history is returned; splice it with
// History.Splice to check the chopping's observable behaviour against
// the static verdict of chopping.CheckStatic.
func RunChoppedPrograms(db *engine.DB, programs []chopping.Program, cfg ChoppedRunConfig) (*model.History, error) {
	if len(programs) == 0 {
		return nil, errors.New("workload: no programs")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	objs := make(map[model.Obj]model.Value)
	for _, p := range programs {
		for _, pc := range p.Pieces {
			for _, x := range pc.Reads {
				objs[x] = 0
			}
			for _, x := range pc.Writes {
				objs[x] = 0
			}
		}
	}
	if len(objs) == 0 {
		return nil, errors.New("workload: programs access no objects")
	}
	if err := db.Initialize(objs); err != nil {
		return nil, err
	}
	var counter atomic.Int64
	_, err := drive(loop{sessions: len(programs), txs: cfg.Rounds, seed: cfg.Seed, stride: 104729},
		func(w int, rng *rand.Rand) (func(int) error, error) {
			prog := programs[w]
			name := prog.Name
			if name == "" {
				name = fmt.Sprintf("program%d", w)
			}
			// One session per round, opened here: on the calling
			// goroutine, as engines that allocate sites need.
			sessions := make([]*engine.Session, cfg.Rounds)
			for round := range sessions {
				sessions[round] = db.Session(fmt.Sprintf("%s#%d", name, round))
			}
			return func(round int) error {
				for pj, piece := range prog.Pieces {
					label := piece.Name
					if label == "" {
						label = fmt.Sprintf("p%d", pj)
					}
					err := transact(sessions[round], label, func(tx Tx) error {
						for _, x := range piece.Reads {
							if _, err := tx.Read(x); err != nil {
								return err
							}
						}
						for _, x := range piece.Writes {
							if err := tx.Write(x, model.Value(counter.Add(1))); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						return err
					}
					// Jitter between pieces widens the window in which
					// other sessions can interleave — the situation
					// chopping analysis must tolerate.
					if rng.Intn(2) == 0 {
						runtime.Gosched()
					}
				}
				return nil
			}, nil
		})
	if err != nil {
		return nil, err
	}
	db.Flush()
	return db.History(), nil
}
