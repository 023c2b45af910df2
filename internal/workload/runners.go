package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"sian/internal/engine"
	"sian/internal/model"
)

// RegistersConfig parameterises RunRegisters.
type RegistersConfig struct {
	Sessions     int
	TxPerSession int
	OpsPerTx     int
	Objects      int
	// ReadFraction is the per-mille probability of a read (default
	// 500).
	ReadFraction int
	// Seed makes op sequences reproducible per session.
	Seed int64
}

func (c RegistersConfig) withDefaults() RegistersConfig {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.TxPerSession <= 0 {
		c.TxPerSession = 50
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
	return c
}

// RunRegisters drives a value-traceable register workload against the
// database: concurrent sessions perform random reads and writes, with
// every written value globally unique so that the recorded history's
// read dependencies are recoverable. The database must be fresh; the
// runner initialises every object to 0. Returns the recorded history.
func RunRegisters(db *engine.DB, cfg RegistersConfig) (*model.History, error) {
	cfg = cfg.withDefaults()
	init := make(map[model.Obj]model.Value, cfg.Objects)
	for i := 0; i < cfg.Objects; i++ {
		init[model.Obj(fmt.Sprintf("k%d", i))] = 0
	}
	if err := db.Initialize(init); err != nil {
		return nil, fmt.Errorf("workload: initialising registers: %w", err)
	}
	var counter atomic.Int64
	_, err := drive(loop{sessions: cfg.Sessions, txs: cfg.TxPerSession, seed: cfg.Seed, stride: 1},
		func(w int, rng *rand.Rand) (func(int) error, error) {
			sess := db.Session(fmt.Sprintf("reg%d", w))
			body := func(tx Tx) error {
				for o := 0; o < cfg.OpsPerTx; o++ {
					x := model.Obj(fmt.Sprintf("k%d", rng.Intn(cfg.Objects)))
					if rng.Intn(1000) < cfg.ReadFraction {
						if _, err := tx.Read(x); err != nil {
							return err
						}
					} else if err := tx.Write(x, model.Value(counter.Add(1))); err != nil {
						return err
					}
				}
				return nil
			}
			return func(int) error { return transact(sess, "", body) }, nil
		})
	if err != nil {
		return nil, err
	}
	db.Flush()
	return db.History(), nil
}

// WriteSkewOutcome reports a write-skew experiment.
type WriteSkewOutcome struct {
	// Rounds is the number of rounds run.
	Rounds int
	// Anomalies counts rounds where both withdrawals committed,
	// driving the combined balance negative — impossible under
	// serializability, possible under SI and PSI.
	Anomalies int
}

// RunWriteSkew runs the Figure 2(d) scenario for the given number of
// rounds (default 50). Each round uses a fresh pair of accounts
// initialised to 60 each; two concurrent sessions read both balances
// and, if the combined balance is at least 100, withdraw 100 from their
// own account. An anomaly is a round whose final combined balance is
// negative.
func RunWriteSkew(db *engine.DB, rounds int) (*WriteSkewOutcome, error) {
	if rounds <= 0 {
		rounds = 50
	}
	out := &WriteSkewOutcome{Rounds: rounds}
	sessions := []*engine.Session{db.Session("withdraw1"), db.Session("withdraw2")}
	for r := 0; r < rounds; r++ {
		a1 := model.Obj(fmt.Sprintf("acct1_%d", r))
		a2 := model.Obj(fmt.Sprintf("acct2_%d", r))
		if err := db.Initialize(map[model.Obj]model.Value{a1: 60, a2: 60}); err != nil {
			return nil, err
		}
		// Session w withdraws from account w+1, both at once.
		_, err := drive(loop{sessions: 2, txs: 1}, func(w int, _ *rand.Rand) (func(int) error, error) {
			return func(int) error {
				return transact(sessions[w], fmt.Sprintf("withdraw%d", r), func(tx Tx) error {
					v1, v2, err := readPair(tx, a1, a2)
					if err != nil || v1+v2 < 100 {
						return err
					}
					if w == 0 {
						return tx.Write(a1, v1-100)
					}
					return tx.Write(a2, v2-100)
				})
			}, nil
		})
		if err != nil {
			return nil, err
		}
		db.Flush()
		total, err := balance(db.Session("audit"), a1, a2)
		if err != nil {
			return nil, err
		}
		if total < 0 {
			out.Anomalies++
		}
	}
	return out, nil
}

// readPair reads a and then b.
func readPair(tx Tx, a, b model.Obj) (model.Value, model.Value, error) {
	va, err := tx.Read(a)
	if err != nil {
		return 0, 0, err
	}
	vb, err := tx.Read(b)
	return va, vb, err
}

// add runs x += delta as one transaction named name on sess.
func add(sess *engine.Session, name string, x model.Obj, delta model.Value) error {
	return transact(sess, name, func(tx Tx) error {
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		return tx.Write(x, v+delta)
	})
}

// balance reads a and b in one transaction on sess and returns their
// sum.
func balance(sess *engine.Session, a, b model.Obj) (model.Value, error) {
	var total model.Value
	err := transact(sess, "", func(tx Tx) error {
		va, vb, err := readPair(tx, a, b)
		total = va + vb
		return err
	})
	return total, err
}

// TransferConfig parameterises the chopping-speedup experiment (§1,
// §5 motivation): concurrent sessions each move value along a chain of
// accounts. Unchopped, a session updates all Hops accounts in one
// transaction; chopped, it issues one transaction per hop.
type TransferConfig struct {
	Sessions  int
	Transfers int // transfers per session
	Accounts  int // size of the shared account pool
	Hops      int // accounts touched per transfer
	Chopped   bool
	Seed      int64
	// Think simulates per-hop application work between the read and
	// the write. Long-running transactions are the motivation for
	// chopping (§1, §5): with a non-zero think time, a monolithic
	// transfer holds an SI conflict window of Hops × Think, while each
	// chopped piece holds only Think.
	Think time.Duration
}

func (c TransferConfig) withDefaults() TransferConfig {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Transfers <= 0 {
		c.Transfers = 20
	}
	if c.Accounts <= 0 {
		c.Accounts = 8
	}
	if c.Hops <= 0 {
		c.Hops = 4
	}
	return c
}

// TransferOutcome reports the chopping experiment.
type TransferOutcome struct {
	Commits   int64
	Conflicts int64
}

// RunTransfers executes the transfer workload and returns commit and
// conflict counts (the conflict rate is the quantity chopping is meant
// to reduce under SI, by shrinking the conflict window of each piece).
func RunTransfers(db *engine.DB, cfg TransferConfig) (*TransferOutcome, error) {
	cfg = cfg.withDefaults()
	init := make(map[model.Obj]model.Value, cfg.Accounts)
	for i := 0; i < cfg.Accounts; i++ {
		init[acctName(i)] = 1000
	}
	if err := db.Initialize(init); err != nil {
		return nil, err
	}
	before := db.Stats()
	_, err := drive(loop{sessions: cfg.Sessions, txs: cfg.Transfers, seed: cfg.Seed, stride: 7919},
		func(w int, rng *rand.Rand) (func(int) error, error) {
			sess := db.Session(fmt.Sprintf("transfer%d", w))
			return func(int) error {
				accounts := pickDistinct(rng, cfg.Accounts, cfg.Hops)
				if !cfg.Chopped {
					// Monolithic: every hop in one transaction.
					return transact(sess, "", func(tx Tx) error {
						for _, a := range accounts {
							if err := hop(tx, a, cfg.Think); err != nil {
								return err
							}
						}
						return nil
					})
				}
				// Chopped: one transaction per hop.
				for _, a := range accounts {
					if err := transact(sess, "", func(tx Tx) error { return hop(tx, a, cfg.Think) }); err != nil {
						return err
					}
				}
				return nil
			}, nil
		})
	if err != nil {
		return nil, err
	}
	after := db.Stats()
	return &TransferOutcome{
		Commits:   after.Commits - before.Commits,
		Conflicts: after.Conflicts - before.Conflicts,
	}, nil
}

func acctName(i int) model.Obj { return model.Obj(fmt.Sprintf("acct%d", i)) }

// pickDistinct draws k distinct indices from [0, n).
func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	return perm[:k]
}

// hop increments account a, thinking between the read and the write.
func hop(tx Tx, a int, think time.Duration) error {
	v, err := tx.Read(acctName(a))
	if err != nil {
		return err
	}
	if think > 0 {
		time.Sleep(think)
	}
	return tx.Write(acctName(a), v+1)
}

// StageBankingChopped realises Figure 4 operationally on a database:
// the transfer is chopped into two transactions (debit acct1, credit
// acct2), and balance queries run *between* the two pieces. With
// atomicLookup a single lookupAll transaction reads both accounts —
// observing the half-completed transfer, so that splicing the recorded
// history leaves HistSI (the incorrect chopping of Figure 5); with
// per-account lookups the spliced history stays in HistSI (the correct
// chopping of Figure 6). The returned history is the recorded one;
// call History.Splice to obtain the spliced counterpart.
func StageBankingChopped(db *engine.DB, atomicLookup bool) (*model.History, error) {
	if err := db.Initialize(map[model.Obj]model.Value{objAcct1: 100, objAcct2: 100}); err != nil {
		return nil, err
	}
	transfer := db.Session("transfer")
	if err := add(transfer, "piece1", objAcct1, -100); err != nil {
		return nil, err
	}
	// Queries between the pieces.
	readObj := func(sess *engine.Session, objs ...model.Obj) error {
		return sess.Transact(func(tx *engine.Tx) error {
			for _, x := range objs {
				if _, err := tx.Read(x); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if atomicLookup {
		if err := readObj(db.Session("lookupAll"), objAcct1, objAcct2); err != nil {
			return nil, err
		}
	} else {
		if err := readObj(db.Session("lookup1"), objAcct1); err != nil {
			return nil, err
		}
		if err := readObj(db.Session("lookup2"), objAcct2); err != nil {
			return nil, err
		}
	}
	if err := add(transfer, "piece2", objAcct2, 100); err != nil {
		return nil, err
	}
	db.Flush()
	return db.History(), nil
}

// StageLongFork drives a PSI database (in manual-propagation mode)
// through the Figure 2(c) long fork deterministically and returns the
// recorded history: T1 writes x at site A, T2 writes y at site B; T3
// at site A observes x=1, y=0; T4 at site B observes y=1, x=0. The
// caller owns db and should create it with
// Config{ManualPropagation: true}.
func StageLongFork(db *engine.DB) (*model.History, error) {
	if db.Kind() != engine.PSI {
		return nil, fmt.Errorf("workload: long fork staging requires a PSI database, got %v", db.Kind())
	}
	if err := db.Initialize(map[model.Obj]model.Value{objX: 0, objY: 0}); err != nil {
		return nil, err
	}
	siteA := db.Session("siteA")
	siteB := db.Session("siteB")
	write := func(s *engine.Session, obj model.Obj) error {
		return s.Transact(func(tx *engine.Tx) error { return tx.Write(obj, 1) })
	}
	readBoth := func(s *engine.Session, first, second model.Obj) error {
		return transact(s, "", func(tx Tx) error {
			_, _, err := readPair(tx, first, second)
			return err
		})
	}
	// Concurrent writes at two sites, not yet propagated.
	if err := write(siteA, objX); err != nil {
		return nil, err
	}
	if err := write(siteB, objY); err != nil {
		return nil, err
	}
	// Each site reads with only its own write applied: the fork.
	if err := readBoth(siteA, objX, objY); err != nil {
		return nil, err
	}
	if err := readBoth(siteB, objY, objX); err != nil {
		return nil, err
	}
	db.Flush()
	return db.History(), nil
}
