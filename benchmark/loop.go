package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sian/internal/engine"
)

// timing is the shape of one measured segment: a discarded warm-up,
// then windows × windowLen of measurement. It is fixed by the benchmark
// so that every commit is measured over the same run length (retained
// history makes throughput depend on it).
type timing struct {
	warmup    time.Duration
	windows   int
	windowLen time.Duration
}

func (t timing) measured() time.Duration { return time.Duration(t.windows) * t.windowLen }

// timingFor cuts a measured time into ten windows (five when it is
// under two seconds, as in -smoke) behind a warm-up of a fifth of it:
// 2 s + 10 × 1 s for the standard run.
func timingFor(measure time.Duration) timing {
	windows := 10
	if measure < 2*time.Second {
		windows = 5
	}
	return timing{warmup: measure / 5, windows: windows, windowLen: measure / time.Duration(windows)}
}

const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// sessionStats is what one closed-loop session recorded. Only its own
// goroutine writes it until the loop has been joined.
type sessionStats struct {
	rw, ro    windowed // latency of writing / read-only transactions, ns
	commits   []int64  // acknowledged transactions per window
	acked     int64    // acknowledged over the whole run, warm-up included
	attempted int64
	failed    int64
	err       error
}

// segment is the outcome of one closed-loop run of a system.
type segment struct {
	timing   timing
	sessions []*sessionStats
	rssWarm  int64 // resident set when the warm-up ended
	rssPeak  int64 // high-water mark when measurement ended
	// Heap statistics and the engine's commit counter, read together
	// right after a forced GC at the end of the warm-up and again after
	// the loop stopped: HeapAlloc is then live memory, and its growth
	// per commit in between is what the engine retains per commit.
	memBefore, memAfter         runtime.MemStats
	commitsBefore, commitsAfter int64
}

// perCommit divides a growth between the two heap readings by the
// commits in between.
func (s *segment) perCommit(before, after uint64) float64 {
	return float64(int64(after)-int64(before)) / float64(max(s.commitsAfter-s.commitsBefore, 1))
}

func (s *segment) commits() (total int64, perWindow []float64) {
	perWindow = make([]float64, s.timing.windows)
	for _, st := range s.sessions {
		for w, n := range st.commits {
			total += n
			perWindow[w] += float64(n)
		}
	}
	return total, perWindow
}

func (s *segment) totals() (acked, attempted, failed int64, err error) {
	for _, st := range s.sessions {
		acked += st.acked
		attempted += st.attempted
		failed += st.failed
		if err == nil {
			err = st.err
		}
	}
	return
}

func (s *segment) latencies(readOnly bool) windowed {
	parts := make([]windowed, len(s.sessions))
	for i, st := range s.sessions {
		parts[i] = st.rw
		if readOnly {
			parts[i] = st.ro
		}
	}
	return mergeWindows(parts...)
}

// runLoop drives the system's sessions as closed loops — each sends its
// next transaction when the previous one returned — through the warm-up
// and the measured windows. A transaction belongs to the window it
// completed in; one that straddles the end of the last window is
// dropped. On a traced system the tracer is on for the measured part
// only.
func runLoop(sys *system, seed int64, tm timing) *segment {
	seg := &segment{timing: tm}
	var (
		phase atomic.Int32
		start int64 // nanos(); written before phase becomes phaseMeasure
		wg    sync.WaitGroup
	)
	for i := range sys.exec {
		st := &sessionStats{rw: make(windowed, tm.windows), ro: make(windowed, tm.windows), commits: make([]int64, tm.windows)}
		seg.sessions = append(seg.sessions, st)
		// The engine sees only the generated keys and values; the seed
		// stays here.
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, exec := sys.logics[i], sys.exec[i]
			for {
				ph := phase.Load()
				if ph == phaseStop {
					return
				}
				l.prepare(rng)
				traced := sys.tr.on()
				var sp *span
				if traced {
					sp = sys.tr.open(i)
				}
				t0 := nanos()
				err := exec()
				t1 := nanos()
				if traced {
					sys.tr.close(sp, sys.txnKind, i, t0, t1)
				}
				st.attempted++
				if err != nil {
					st.failed++
					if st.err == nil {
						st.err = err
					}
					if errors.Is(err, engine.ErrTooManyRetries) {
						continue
					}
					return // a transport or engine error will not heal
				}
				st.acked++
				l.committed()
				if ph != phaseMeasure {
					continue
				}
				w := int((t1 - start) / int64(tm.windowLen))
				if w < 0 || w >= tm.windows {
					continue
				}
				st.commits[w]++
				lat := uint32(min(t1-t0, int64(^uint32(0))))
				if l.readOnly() {
					st.ro[w] = append(st.ro[w], lat)
				} else {
					st.rw[w] = append(st.rw[w], lat)
				}
			}
		}(i)
	}
	time.Sleep(tm.warmup)
	seg.rssWarm = rssBytes()
	runtime.GC()
	runtime.ReadMemStats(&seg.memBefore)
	seg.commitsBefore = sys.db.Stats().Commits
	start = nanos()
	if sys.tr != nil {
		sys.tr.enabled.Store(true)
	}
	phase.Store(phaseMeasure)
	time.Sleep(tm.measured() - time.Duration(nanos()-start))
	phase.Store(phaseStop)
	if sys.tr != nil {
		sys.tr.enabled.Store(false)
	}
	seg.rssPeak = peakRSSBytes()
	wg.Wait()
	runtime.GC()
	runtime.ReadMemStats(&seg.memAfter)
	seg.commitsAfter = sys.db.Stats().Commits
	return seg
}
