// Fixture: two sessions each run a transaction named t, and only
// alice's reads a key silint cannot resolve. The write skew between
// the two, and the critical cycle through alice's chopping into t and
// u, are both anchored at the widened t, whose widening site the
// annotation template must name. It sits outside testdata/src, so the
// golden walks do not see it.
package main

import (
	"sian/internal/engine"
	"sian/internal/model"
)

func main() {
	db, err := engine.New(engine.SI, engine.Config{})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	alice := db.Session("alice")
	bob := db.Session("bob")
	_ = alice.TransactNamed("t", func(tx *engine.Tx) error {
		for _, k := range []string{"x", "y"} {
			if _, err := tx.Read(model.Obj(k)); err != nil {
				return err
			}
		}
		return tx.Write("x", 1)
	})
	_ = alice.TransactNamed("u", func(tx *engine.Tx) error {
		v, err := tx.Read("y")
		if err != nil {
			return err
		}
		return tx.Write("w", v)
	})
	_ = bob.TransactNamed("t", func(tx *engine.Tx) error {
		if _, err := tx.Read("x"); err != nil {
			return err
		}
		if _, err := tx.Read("y"); err != nil {
			return err
		}
		return tx.Write("y", 1)
	})
}
