// Package silform holds silint-checkable program forms of the
// registered workloads: the same transaction programs the operational
// runners in internal/workload drive with goroutines and RNG mixes,
// rewritten as straight-line Go that the §6.1 static analysis can
// extract exactly — constant object keys, single-transaction sessions,
// and helpers that take the *engine.Tx handle (exercising the
// interprocedural summariser). The package must stay diagnostic-free
// with zero ⊤-widenings; the differential test asserts that the
// statically extracted read/write sets over-approximate what the
// engine records when the same forms are replayed, and CI runs silint
// as a go vet tool over the package as a quality gate.
//
// The SmallBank form carries the Promote-materialised conflict fix
// (Alomari et al., ICDE 2008; the paper's §6 remedy): TransactSavings
// and WriteCheck both promote a dedicated conflict object, so the
// write-skew race between them cannot commit on overlapping snapshots.
package silform

import (
	"sian/internal/engine"
	"sian/internal/model"
)

// The fixed customer's account objects and the materialised-conflict
// object shared by the racing pair.
const (
	checking = "checking0"
	savings  = "savings0"
	conflict = "conflict0"
)

// The closed-loop counter object, read-modify-written by every worker.
const hits = "hits"

// InitSmallBank funds the fixed customer.
func InitSmallBank(db *engine.DB) error {
	return db.Initialize(map[model.Obj]model.Value{
		checking: 100, savings: 100, conflict: 0,
	})
}

// InitClosedLoop zeroes the shared counter.
func InitClosedLoop(db *engine.DB) error {
	return db.Initialize(map[model.Obj]model.Value{hits: 0})
}

// readAccounts reads both accounts of the fixed customer — the shared
// authorisation step of Balance, TransactSavings and WriteCheck.
func readAccounts(tx *engine.Tx) (cv, sv model.Value, err error) {
	cv, err = tx.Read(checking)
	if err != nil {
		return 0, 0, err
	}
	sv, err = tx.Read(savings)
	if err != nil {
		return 0, 0, err
	}
	return cv, sv, nil
}

// materialise promotes the conflict object: the §6 remedy making the
// disjoint-write TransactSavings/WriteCheck pair conflict under SI.
func materialise(tx *engine.Tx) error {
	return tx.Promote(conflict)
}

// deposit adds amount to the account named by the constant key acct.
func deposit(tx *engine.Tx, acct string, amount model.Value) error {
	v, err := tx.Read(model.Obj(acct))
	if err != nil {
		return err
	}
	return tx.Write(model.Obj(acct), v+amount)
}

// SmallBank replays one round of the Promote-fixed SmallBank programs,
// each transaction in its own session.
func SmallBank(db *engine.DB) error {
	balance := db.Session("sb-balance")
	if err := balance.TransactNamed("Balance", func(tx *engine.Tx) error {
		_, _, err := readAccounts(tx)
		return err
	}); err != nil {
		return err
	}

	depositing := db.Session("sb-deposit")
	if err := depositing.TransactNamed("DepositChecking", func(tx *engine.Tx) error {
		return deposit(tx, checking, 20)
	}); err != nil {
		return err
	}

	saver := db.Session("sb-transactsavings")
	if err := saver.TransactNamed("TransactSavings", func(tx *engine.Tx) error {
		if err := materialise(tx); err != nil {
			return err
		}
		sv, err := tx.Read(savings)
		if err != nil {
			return err
		}
		if sv < 30 {
			return nil // insufficient savings: no-op
		}
		return tx.Write(savings, sv-30)
	}); err != nil {
		return err
	}

	casher := db.Session("sb-writecheck")
	return casher.TransactNamed("WriteCheck", func(tx *engine.Tx) error {
		if err := materialise(tx); err != nil {
			return err
		}
		cv, sv, err := readAccounts(tx)
		if err != nil {
			return err
		}
		if cv+sv < 35 {
			return nil // check not covered: reject
		}
		return tx.Write(checking, cv-35)
	})
}

// increment is the closed-loop body: read-modify-write of one counter.
func increment(tx *engine.Tx, obj string) error {
	v, err := tx.Read(model.Obj(obj))
	if err != nil {
		return err
	}
	return tx.Write(model.Obj(obj), v+1)
}

// ClosedLoop replays the per-round program shape of the closed-loop
// RMW workload: three workers each increment the shared counter once,
// every transaction in its own session. (The operational runner,
// internal/workload.RunClosedLoop, drives many rounds per session; a
// multi-transaction session is a chopping under Corollary 18 and
// RMW-on-the-same-object pieces do not chop correctly, so the
// checkable form keeps the loop in the caller — re-invoke ClosedLoop
// for more rounds.) Every transaction both reads and writes the same
// object, so any concurrent pair conflicts — robust under SI by
// construction.
func ClosedLoop(db *engine.DB) error {
	w0 := db.Session("loop-w0")
	if err := w0.TransactNamed("rmw0", func(tx *engine.Tx) error {
		return increment(tx, hits)
	}); err != nil {
		return err
	}
	w1 := db.Session("loop-w1")
	if err := w1.TransactNamed("rmw1", func(tx *engine.Tx) error {
		return increment(tx, hits)
	}); err != nil {
		return err
	}
	w2 := db.Session("loop-w2")
	return w2.TransactNamed("rmw2", func(tx *engine.Tx) error {
		return increment(tx, hits)
	})
}
