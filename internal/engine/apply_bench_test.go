package engine_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	. "sian/internal/engine"
	"sian/internal/model"
)

// BenchmarkPSIApply guards the batched replica apply loop: commits
// with multi-object write sets are staged at site 0 under manual
// propagation, then the timed section applies them at site 1 via
// Flush. Each applied commit installs its whole write set with one
// batch (one shard-lock acquisition per covered shard) instead of one
// store-lock round-trip per object.
func BenchmarkPSIApply(b *testing.B) {
	const objsPerCommit = 8
	db, err := New(PSI, Config{ManualPropagation: true, Sites: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	init := make(map[model.Obj]model.Value, objsPerCommit)
	for i := 0; i < objsPerCommit; i++ {
		init[model.Obj(fmt.Sprintf("p%d", i))] = 0
	}
	if err := db.Initialize(init); err != nil {
		b.Fatal(err)
	}
	origin := db.Session("origin") // site 0
	db.Session("sink")             // materialise site 1
	db.Flush()
	for n := 0; n < b.N; n++ {
		err := origin.Transact(func(tx *Tx) error {
			for i := 0; i < objsPerCommit; i++ {
				if err := tx.Write(model.Obj(fmt.Sprintf("p%d", i)), model.Value(n)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	db.Flush() // the timed apply: b.N staged commits × objsPerCommit installs
}

// BenchmarkSICommitDisjoint measures the multicore commit path SI and
// SSI share: every worker read-modify-writes a private object (so
// SSI's SIREAD and veto run too), commits validate and install under
// disjoint shard locks and only meet at the publication handoff — and,
// under SSI, at the tracker mutex. Run with -cpu 1,2,4 to see the
// scaling. A bare loop for traffic BENCHMARK.json cannot see (all six
// workloads there are SI): EXPERIMENTS.md E36 records it.
func BenchmarkSICommitDisjoint(b *testing.B) {
	for _, kind := range []Kind{SI, SSI} {
		b.Run(kind.String(), func(b *testing.B) { benchCommitDisjoint(b, kind) })
	}
}

func benchCommitDisjoint(b *testing.B, kind Kind) {
	db, err := New(kind, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	init := make(map[model.Obj]model.Value)
	const pool = 64
	for i := 0; i < pool; i++ {
		init[model.Obj(fmt.Sprintf("d%d", i))] = 0
	}
	if err := db.Initialize(init); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		// One private object and session per worker goroutine.
		id := int(next.Add(1)) - 1
		sess := db.Session(fmt.Sprintf("bench%d", id))
		obj := model.Obj(fmt.Sprintf("d%d", id%pool))
		for pb.Next() {
			err := sess.Transact(func(tx *Tx) error {
				v, err := tx.Read(obj)
				if err != nil {
					return err
				}
				return tx.Write(obj, v+1)
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}
