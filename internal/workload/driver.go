package workload

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sian/internal/engine"
	"sian/internal/model"
)

// Tx is the transaction handle a workload body reads and writes
// through. *engine.Tx, *siwire.ClientTx and *siwire.Client satisfy it.
type Tx interface {
	Read(x model.Obj) (model.Value, error)
	Write(x model.Obj, v model.Value) error
}

// Transactor runs body as one transaction, re-running it on conflict
// until it commits.
type Transactor func(body func(Tx) error) error

// transact runs body as one transaction named name on sess.
func transact(sess *engine.Session, name string, body func(Tx) error) error {
	return sess.TransactNamed(name, func(tx *engine.Tx) error { return body(tx) })
}

// loop sizes one driver run: sessions workers, each running its body
// txs times or, when duration is positive, until duration ends. Worker
// w's RNG is seeded seed + w·stride.
type loop struct {
	sessions, txs int
	duration      time.Duration
	seed, stride  int64
}

// drive is the one concurrent loop of the looping workloads. It calls
// open for every worker on the calling goroutine, in worker order,
// before any worker starts (engines that place sessions on sites in
// creation order need that), and open returns the worker's body; each
// worker then calls its body with n = 0, 1, … on its own goroutine,
// stopping at its first error. drive returns the time from the first
// worker's start to the last one's exit and the workers' errors
// joined.
func drive(l loop, open func(w int, rng *rand.Rand) (func(n int) error, error)) (time.Duration, error) {
	bodies := make([]func(int) error, l.sessions)
	for w := range bodies {
		var err error
		if bodies[w], err = open(w, rand.New(rand.NewSource(l.seed+int64(w)*l.stride))); err != nil {
			return 0, err
		}
	}
	var stop atomic.Bool
	if l.duration > 0 {
		defer time.AfterFunc(l.duration, func() { stop.Store(true) }).Stop()
	}
	more := func(n int) bool {
		if l.duration > 0 {
			return !stop.Load()
		}
		return n < l.txs
	}
	errs := make([]error, l.sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for w, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; more(n) && errs[w] == nil; n++ {
				errs[w] = body(n)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}
