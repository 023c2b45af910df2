package workload

import (
	"fmt"
	"math/rand"

	"sian/internal/engine"
	"sian/internal/model"
)

// SmallBankConfig parameterises RunSmallBank.
type SmallBankConfig struct {
	Customers    int // default 4
	Sessions     int // default 4
	TxPerSession int // default 50
	Seed         int64
}

// initialChecking and initialSavings are every customer's opening
// balances.
const initialChecking, initialSavings = 100, 100

func (c SmallBankConfig) withDefaults() SmallBankConfig {
	if c.Customers <= 0 {
		c.Customers = 4
	}
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.TxPerSession <= 0 {
		c.TxPerSession = 50
	}
	return c
}

// SmallBankOutcome reports a SmallBank run.
type SmallBankOutcome struct {
	// Overdrafts counts customers whose final combined balance is
	// negative. The application logic never authorises an uncovered
	// withdrawal, so under serializability (and SSI) this is always 0;
	// under SI a WriteCheck racing a TransactSavings withdrawal can
	// overdraw — the SmallBank write skew the §6.1 analysis flags
	// statically.
	Overdrafts int
	// Operations counts committed application transactions.
	Operations int
}

// RunSmallBank drives the SmallBank application (Alomari et al.)
// operationally: concurrent sessions issue random Balance,
// DepositChecking, TransactSavings, WriteCheck and Amalgamate
// transactions with real money semantics, and a final audit checks the
// never-overdrawn invariant per customer.
func RunSmallBank(db *engine.DB, cfg SmallBankConfig) (*SmallBankOutcome, error) {
	cfg = cfg.withDefaults()
	init := make(map[model.Obj]model.Value, 2*cfg.Customers)
	for n := 0; n < cfg.Customers; n++ {
		c, s := smallBankObjs(n)
		init[c] = initialChecking
		init[s] = initialSavings
	}
	if err := db.Initialize(init); err != nil {
		return nil, err
	}
	_, err := drive(loop{sessions: cfg.Sessions, txs: cfg.TxPerSession, seed: cfg.Seed, stride: 6151},
		func(w int, rng *rand.Rand) (func(int) error, error) {
			sess := db.Session(fmt.Sprintf("teller%d", w))
			return func(int) error {
				n := rng.Intn(cfg.Customers)
				c, s := smallBankObjs(n)
				switch rng.Intn(5) {
				case 0:
					return transact(sess, "Balance", func(tx Tx) error {
						_, _, err := readPair(tx, c, s)
						return err
					})
				case 1:
					return add(sess, "DepositChecking", c, model.Value(1+rng.Intn(20)))
				case 2:
					return sbTransactSavings(sess, c, s, -model.Value(1+rng.Intn(80)))
				case 3:
					return sbWriteCheck(sess, c, s, model.Value(1+rng.Intn(120)))
				default:
					return sbAmalgamate(sess, n, (n+1)%cfg.Customers)
				}
			}, nil
		})
	if err != nil {
		return nil, err
	}
	db.Flush()
	out := &SmallBankOutcome{Operations: cfg.Sessions * cfg.TxPerSession}
	audit := db.Session("audit")
	for n := 0; n < cfg.Customers; n++ {
		c, s := smallBankObjs(n)
		total, err := balance(audit, c, s)
		if err != nil {
			return nil, err
		}
		if total < 0 {
			out.Overdrafts++
		}
	}
	return out, nil
}

// sbTransactSavings applies amount (possibly negative) to savings s.
// Withdrawals are authorised against the *combined* balance — the
// precondition that makes "total never negative" a serial invariant,
// and exactly what creates the disjoint-write race with WriteCheck
// under SI.
func sbTransactSavings(sess *engine.Session, c, s model.Obj, amount model.Value) error {
	return transact(sess, "TransactSavings", func(tx Tx) error {
		cv, sv, err := readPair(tx, c, s)
		if err != nil || cv+sv+amount < 0 {
			return err // insufficient funds: no-op
		}
		return tx.Write(s, sv+amount)
	})
}

// sbWriteCheck cashes a check against the combined balance: only
// authorised when covered, deducted from checking c.
func sbWriteCheck(sess *engine.Session, c, s model.Obj, amount model.Value) error {
	return transact(sess, "WriteCheck", func(tx Tx) error {
		cv, sv, err := readPair(tx, c, s)
		if err != nil || cv+sv < amount {
			return err // not covered: reject the check
		}
		return tx.Write(c, cv-amount)
	})
}

// sbAmalgamate moves all of customer a's funds into customer b's
// checking.
func sbAmalgamate(sess *engine.Session, a, b int) error {
	ca, sa := smallBankObjs(a)
	cb, _ := smallBankObjs(b)
	if a == b {
		return nil
	}
	return transact(sess, "Amalgamate", func(tx Tx) error {
		cav, sav, err := readPair(tx, ca, sa)
		if err != nil {
			return err
		}
		cbv, err := tx.Read(cb)
		if err != nil {
			return err
		}
		if err := tx.Write(ca, 0); err != nil {
			return err
		}
		if err := tx.Write(sa, 0); err != nil {
			return err
		}
		return tx.Write(cb, cbv+cav+sav)
	})
}

// StageSmallBankOverdraft stages the SmallBank write skew
// deterministically: a WriteCheck and a TransactSavings withdrawal on
// the same customer run on overlapping snapshots. Under SI both
// commit, overdrawing the customer; under SER and SSI one aborts. It
// returns whether both committed and the final combined balance.
func StageSmallBankOverdraft(db *engine.DB) (bothCommitted bool, finalTotal model.Value, err error) {
	c, s := smallBankObjs(0)
	if err := db.Initialize(map[model.Obj]model.Value{c: 10, s: 30}); err != nil {
		return false, 0, err
	}
	wc, err := db.Session("writecheck").Begin("WriteCheck")
	if err != nil {
		return false, 0, err
	}
	ts, err := db.Session("transactsavings").Begin("TransactSavings")
	if err != nil {
		return false, 0, err
	}
	// WriteCheck: cash 35 against combined 40.
	cv, sv, err := readPair(wc, c, s)
	if err != nil {
		return false, 0, err
	}
	if cv+sv < 35 {
		return false, 0, fmt.Errorf("workload: staging broken: combined %d", cv+sv)
	}
	if err := wc.Write(c, cv-35); err != nil {
		return false, 0, err
	}
	// TransactSavings: withdraw 30, authorised against the combined
	// snapshot balance 40.
	tcv, tsv, err := readPair(ts, c, s)
	if err != nil {
		return false, 0, err
	}
	if tcv+tsv < 30 {
		return false, 0, fmt.Errorf("workload: staging broken: combined %d", tcv+tsv)
	}
	if err := ts.Write(s, tsv-30); err != nil {
		return false, 0, err
	}
	err1 := wc.Commit()
	err2 := ts.Commit()
	db.Flush()
	total, err := balance(db.Session("audit"), c, s)
	if err != nil {
		return false, 0, err
	}
	return err1 == nil && err2 == nil, total, nil
}
