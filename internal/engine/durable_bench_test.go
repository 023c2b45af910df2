package engine_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	. "sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/storage/wal"
)

// BenchmarkDurableCommit guards the traffic BENCHMARK.json cannot see
// (no workload there has more than 2 sessions, and none runs SSI): a
// bare closed loop of N sessions of each durable kind (SI, SSI) over
// storage/wal with fsync on, each session on a private
// 8-key pool running 2 reads + 2 read-modify-writes per transaction.
// With many sessions the WAL's group fsync is the only batching left
// on the commit path, so the loop reports, besides txs/s, how many
// appended records each fsync covered (wal_appends_total /
// wal_syncs_total) and how many records each commit appended
// (appends/commit: 1, one record per transaction, for both kinds). A
// bare loop, not a benchmark claim: EXPERIMENTS.md E35 and E36 record
// it next to the benchmark/run.sh pairs.
func BenchmarkDurableCommit(b *testing.B) {
	for _, kind := range []Kind{SI, SSI} {
		for _, sessions := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("%v/sessions=%d", kind, sessions), func(b *testing.B) {
				benchDurableCommit(b, kind, sessions)
			})
		}
	}
}

func benchDurableCommit(b *testing.B, kind Kind, sessions int) {
	const pool = 8
	reg := obs.NewRegistry()
	drv, err := wal.Open(wal.Options{Dir: b.TempDir(), Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	db, err := New(kind, Config{Driver: drv})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	key := func(s, i int) model.Obj { return model.Obj(fmt.Sprintf("s%d/k%d", s, i%pool)) }
	init := make(map[model.Obj]model.Value, sessions*pool)
	for s := 0; s < sessions; s++ {
		for i := 0; i < pool; i++ {
			init[key(s, i)] = 0
		}
	}
	if err := db.Initialize(init); err != nil {
		b.Fatal(err)
	}
	appends, syncs := reg.Counter("wal_appends_total"), reg.Counter("wal_syncs_total")
	appends0, syncs0, commits0 := appends.Value(), syncs.Value(), db.Stats().Commits

	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := db.Session(fmt.Sprintf("bench%d", s))
			for n := 0; next.Add(1) <= int64(b.N); n += 4 {
				err := sess.Transact(func(tx *Tx) error {
					for i := 0; i < 2; i++ {
						if _, err := tx.Read(key(s, n+i)); err != nil {
							return err
						}
					}
					for i := 2; i < 4; i++ {
						v, err := tx.Read(key(s, n+i))
						if err != nil {
							return err
						}
						if err := tx.Write(key(s, n+i), v+1); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txs/s")
	if n := syncs.Value() - syncs0; n > 0 {
		b.ReportMetric(float64(appends.Value()-appends0)/float64(n), "appends/sync")
	}
	if n := db.Stats().Commits - commits0; n > 0 {
		b.ReportMetric(float64(appends.Value()-appends0)/float64(n), "appends/commit")
	}
}
