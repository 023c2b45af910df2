package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"sian/internal/engine"
	"sian/internal/model"
)

// ClosedLoopConfig parameterises the closed-loop workload (RunClosedLoop,
// Drive): one worker per session, each issuing its next transaction as
// soon as the previous one finishes (a closed loop — offered load
// equals 1 outstanding transaction per session).
type ClosedLoopConfig struct {
	// Sessions is the number of concurrent worker sessions.
	Sessions int
	// Duration bounds the run by wall clock; when zero, Ops bounds it
	// by count instead.
	Duration time.Duration
	// Ops is the number of transactions per session when Duration is
	// zero (default 50).
	Ops int
	// OpsPerTx is the number of read/write operations per transaction
	// (default 3).
	OpsPerTx int
	// Objects sizes the object pool: shared across sessions, or per
	// session when Disjoint is set (default 4).
	Objects int
	// ReadFraction is the per-mille probability of a pure read
	// (default 500); every other operation is a read-modify-write of
	// the picked object.
	ReadFraction int
	// Disjoint gives every session a private object pool, so write
	// sets never overlap — the scaling workload: commits proceed on
	// disjoint store shards with no conflicts.
	Disjoint bool
	// HotKeys, when positive, skews accesses: HotFraction per mille
	// of object picks come from the first HotKeys objects of the
	// shared pool — the contention workload. Ignored with Disjoint.
	HotKeys int
	// HotFraction is the per-mille probability of picking a hot key
	// when HotKeys > 0 (default 800).
	HotFraction int
	// Seed makes the per-worker RNG streams reproducible.
	Seed int64
}

func (c ClosedLoopConfig) withDefaults() ClosedLoopConfig {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Ops <= 0 {
		c.Ops = 50
	}
	if c.OpsPerTx <= 0 {
		c.OpsPerTx = 3
	}
	if c.Objects <= 0 {
		c.Objects = 4
	}
	if c.ReadFraction <= 0 {
		c.ReadFraction = 500
	}
	if c.HotFraction <= 0 {
		c.HotFraction = 800
	}
	if c.HotKeys > c.Objects {
		c.HotKeys = c.Objects
	}
	return c
}

// ClosedLoopOutcome reports a closed-loop run.
type ClosedLoopOutcome struct {
	// Elapsed is the wall-clock span between the first worker start
	// and the last worker exit.
	Elapsed time.Duration
	// Commits, Conflicts, Retries are the engine counter deltas over
	// the run (workload transactions only, not initialisation).
	Commits   int64
	Conflicts int64
	Retries   int64
	// PerSession counts committed transactions per worker; the spread
	// diagnoses fairness collapse under contention.
	PerSession []int64
}

// objName returns the n-th object of a worker's pool: private pools
// under Disjoint, one shared pool otherwise.
func (c ClosedLoopConfig) objName(worker, n int) model.Obj {
	if c.Disjoint {
		return model.Obj(fmt.Sprintf("cl%d_%d", worker, n))
	}
	return model.Obj(fmt.Sprintf("cl%d", n))
}

// pick draws an object index, honouring the hot-set skew.
func (c ClosedLoopConfig) pick(rng *rand.Rand) int {
	if !c.Disjoint && c.HotKeys > 0 && rng.Intn(1000) < c.HotFraction {
		return rng.Intn(c.HotKeys)
	}
	return rng.Intn(c.Objects)
}

// Pool lists the objects the run reads and writes, each of which must
// hold 0 when it starts: one shared pool, or one per session under
// Disjoint.
func (c ClosedLoopConfig) Pool() []model.Obj {
	c = c.withDefaults()
	pools := 1
	if c.Disjoint {
		pools = c.Sessions
	}
	var objs []model.Obj
	for w := 0; w < pools; w++ {
		for n := 0; n < c.Objects; n++ {
			objs = append(objs, c.objName(w, n))
		}
	}
	return objs
}

// Drive runs the closed loop over one Transactor per session, which
// open returns for worker w on the calling goroutine: RunClosedLoop
// opens engine sessions, sibench -addr siwire connections. Each
// transaction draws OpsPerTx objects; a drawn object is read, or read
// and then overwritten with a value unique across the run, so the
// recorded history is value-traceable and check.Certify can recover
// its read dependencies. Drive fills Elapsed and PerSession; counting
// commits and conflicts is the caller's.
func (c ClosedLoopConfig) Drive(open func(w int) (Transactor, error)) (*ClosedLoopOutcome, error) {
	c = c.withDefaults()
	var counter atomic.Int64
	out := &ClosedLoopOutcome{PerSession: make([]int64, c.Sessions)}
	var err error
	l := loop{sessions: c.Sessions, txs: c.Ops, duration: c.Duration, seed: c.Seed, stride: 6364136223846793005}
	out.Elapsed, err = drive(l, func(w int, rng *rand.Rand) (func(int) error, error) {
		transact, err := open(w)
		pool := 0
		if c.Disjoint {
			pool = w
		}
		body := func(tx Tx) error {
			for o := 0; o < c.OpsPerTx; o++ {
				x := c.objName(pool, c.pick(rng))
				write := rng.Intn(1000) >= c.ReadFraction
				// A write is a read-modify-write rather than a blind
				// write: the read pins the predecessor version, so the
				// recorded history's version order is traceable and
				// certification stays near-linear (long concurrent
				// blind-write chains force the checker to search WW
				// orders).
				if _, err := tx.Read(x); err != nil {
					return err
				}
				if write {
					if err := tx.Write(x, model.Value(counter.Add(1))); err != nil {
						return err
					}
				}
			}
			return nil
		}
		return func(int) error {
			if err := transact(body); err != nil {
				return err
			}
			out.PerSession[w]++
			return nil
		}, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunClosedLoop drives the closed-loop workload on one engine session
// per worker until the duration or per-session op count is exhausted.
// The database must be fresh; the runner initialises every pool object
// to 0.
func RunClosedLoop(db *engine.DB, cfg ClosedLoopConfig) (*ClosedLoopOutcome, error) {
	init := make(map[model.Obj]model.Value)
	for _, x := range cfg.Pool() {
		init[x] = 0
	}
	if err := db.Initialize(init); err != nil {
		return nil, fmt.Errorf("workload: initialising closed loop: %w", err)
	}
	before := db.Stats()
	out, err := cfg.Drive(func(w int) (Transactor, error) {
		sess := db.Session(fmt.Sprintf("cl%d", w))
		return func(body func(Tx) error) error { return transact(sess, "", body) }, nil
	})
	if err != nil {
		return nil, err
	}
	after := db.Stats()
	out.Commits = after.Commits - before.Commits
	out.Conflicts = after.Conflicts - before.Conflicts
	out.Retries = after.Retries - before.Retries
	return out, nil
}
