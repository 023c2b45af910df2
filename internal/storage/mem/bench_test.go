package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sian/internal/model"
)

// The micro-benchmarks measure the store primitives under 1, 4 and 8
// goroutines on disjoint objects — the contention profile the sharded
// SI commit path produces. Each goroutine owns a private object so
// installs stay per-chain monotonic; with lock striping the
// goroutines fall onto distinct shards with high probability and
// should scale, where the seed single-lock store serialised them.

func benchObjs(n int) []model.Obj {
	objs := make([]model.Obj, n)
	for i := range objs {
		objs[i] = model.Obj(fmt.Sprintf("bench%d", i))
	}
	return objs
}

func runGoroutines(b *testing.B, workers int, fn func(worker, iters int)) {
	b.Helper()
	per := b.N/workers + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, per)
		}(w)
	}
	wg.Wait()
}

func BenchmarkInstall(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines-%d", workers), func(b *testing.B) {
			s := New()
			objs := benchObjs(workers)
			runGoroutines(b, workers, func(w, iters int) {
				obj := objs[w]
				for i := 1; i <= iters; i++ {
					if err := s.Install(obj, Version{Val: model.Value(i), TS: uint64(i)}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

func BenchmarkInstallBatch(b *testing.B) {
	// One batch per op, 8 objects each: the PSI replica apply-loop
	// shape. Compare with BenchmarkInstall at the same object count to
	// see the per-object-lock saving.
	const batchSize = 8
	s := New()
	objs := benchObjs(batchSize)
	ws := make([]Write, batchSize)
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		for j := range ws {
			ws[j] = Write{Obj: objs[j], Version: Version{Val: model.Value(i), TS: uint64(i)}}
		}
		if err := s.InstallBatch(ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadAt(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines-%d", workers), func(b *testing.B) {
			s := New()
			objs := benchObjs(workers)
			const versions = 128
			for _, obj := range objs {
				for i := 1; i <= versions; i++ {
					if err := s.Install(obj, Version{Val: model.Value(i), TS: uint64(i)}); err != nil {
						b.Fatal(err)
					}
				}
			}
			runGoroutines(b, workers, func(w, iters int) {
				obj := objs[w]
				for i := 0; i < iters; i++ {
					if _, ok := s.ReadAt(obj, uint64(1+i%versions)); !ok {
						b.Error("read missed")
						return
					}
				}
			})
		})
	}
	// mem_readmostly's shape: a pool of 100 000 objects, one version
	// each and a second on every tenth, read at random at a current
	// snapshot, so nearly every read misses cache.
	b.Run("pool-100k", func(b *testing.B) {
		const n = 100_000
		s := New()
		objs := benchObjs(n)
		for i, x := range objs {
			if err := s.Install(x, Version{Val: model.Value(i), TS: uint64(1 + i)}); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < n; i += 10 {
			if err := s.Install(objs[i], Version{Val: model.Value(-i), TS: uint64(n + 1 + i)}); err != nil {
				b.Fatal(err)
			}
		}
		rng := uint64(0x9e3779b97f4a7c15)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if _, ok := s.ReadAt(objs[rng%n], 2*n); !ok {
				b.Fatal("read missed")
			}
		}
	})
}

func BenchmarkGC(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines-%d", workers), func(b *testing.B) {
			// GC while concurrent writers keep growing disjoint chains:
			// the Compact-under-load profile. Writers run outside the
			// measured goroutine count; the benchmark times GC sweeps.
			// A writer stays within lead versions of the last sweep's
			// watermark, the slowest writer, so chains stay bounded
			// however the scheduler favours some writers over the rest.
			const lead = 64
			s := New()
			objs := benchObjs(workers)
			var seqs = make([]atomic.Uint64, workers)
			var watermark atomic.Uint64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						ts := seqs[w].Load() + 1
						if ts > watermark.Load()+lead {
							runtime.Gosched()
							continue
						}
						seqs[w].Store(ts)
						if err := s.Install(objs[w], Version{Val: model.Value(ts), TS: ts}); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				min := seqs[0].Load()
				for w := 1; w < workers; w++ {
					if v := seqs[w].Load(); v < min {
						min = v
					}
				}
				s.GC(min)
				watermark.Store(min)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}
