// Package randmix is the silint-checkable form of the skew-prone
// random mix: two withdrawal programs authorise against the combined
// balance of a shared pair of objects but write disjoint halves — the
// Figure 2(d) write skew embedded in a mixed workload, deliberately
// left unfixed. silint must flag this package (write-skew, Theorem
// 19), and CI's go vet gate with silint as the tool runs it as the
// expected-failure case.
package randmix

import (
	"sian/internal/engine"
	"sian/internal/model"
)

const (
	left  = "left"
	right = "right"
	audit = "auditlog"
)

// Init funds both halves.
func Init(db *engine.DB) error {
	return db.Initialize(map[model.Obj]model.Value{
		left: 60, right: 60, audit: 0,
	})
}

// covered reads both halves and reports whether the combined balance
// covers the amount.
func covered(tx *engine.Tx, amount model.Value) (model.Value, model.Value, bool, error) {
	lv, err := tx.Read(left)
	if err != nil {
		return 0, 0, false, err
	}
	rv, err := tx.Read(right)
	if err != nil {
		return 0, 0, false, err
	}
	return lv, rv, lv+rv >= amount, nil
}

// Mix replays one round of the skew-prone mix: the two racing
// withdrawals plus a read-only observer and a log append.
func Mix(db *engine.DB) error {
	a := db.Session("mix-a")
	if err := a.TransactNamed("drainLeft", func(tx *engine.Tx) error {
		lv, _, ok, err := covered(tx, 100)
		if err != nil || !ok {
			return err
		}
		return tx.Write(left, lv-100)
	}); err != nil {
		return err
	}

	b := db.Session("mix-b")
	if err := b.TransactNamed("drainRight", func(tx *engine.Tx) error {
		_, rv, ok, err := covered(tx, 100)
		if err != nil || !ok {
			return err
		}
		return tx.Write(right, rv-100)
	}); err != nil {
		return err
	}

	watcher := db.Session("mix-watch")
	if err := watcher.TransactNamed("observe", func(tx *engine.Tx) error {
		_, _, _, err := covered(tx, 0)
		return err
	}); err != nil {
		return err
	}

	logger := db.Session("mix-log")
	return logger.TransactNamed("logAppend", func(tx *engine.Tx) error {
		n, err := tx.Read(audit)
		if err != nil {
			return err
		}
		return tx.Write(audit, n+1)
	})
}
