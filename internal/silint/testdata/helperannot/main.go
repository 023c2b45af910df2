// Fixture: keys that reach a transaction through a helper. get's key
// is its parameter, so each call site supplies it: under a range loop
// the argument is not a constant, and a silint:obj annotation on the
// helper call asserts it exactly as it would on a Read. sumAll
// resolves no key of its own, so the read it makes is the site an
// annotation would narrow. move passes two keys, one of them a
// constant: the annotation on its call asserts only the key that would
// otherwise be ⊤. An annotation after code covers its own line only,
// so the key written on the next line of trailing and oplog stays ⊤.
// It sits outside testdata/src, so the golden walks do not see it.
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
	s := db.Session("s")
	for _, k := range []string{"a", "b"} {
		_ = s.TransactNamed("annotated", func(tx *engine.Tx) error {
			_, err := get(tx, k) // silint:obj=a,b
			return err
		})
		_ = s.TransactNamed("bare", func(tx *engine.Tx) error {
			_, err := get(tx, k)
			return err
		})
		_ = s.TransactNamed("move", func(tx *engine.Tx) error {
			return move(tx, k, "total") // silint:obj=a,b
		})
		_ = s.TransactNamed("trailing", func(tx *engine.Tx) error {
			v, _ := get(tx, k) // silint:obj=a,b
			return put(tx, k+"-log", v)
		})
		_ = s.TransactNamed("oplog", func(tx *engine.Tx) error {
			v, _ := tx.Read(model.Obj(k)) // silint:obj=a,b
			return tx.Write(model.Obj(k+"-log"), v)
		})
	}
	_ = s.TransactNamed("inner", func(tx *engine.Tx) error {
		return sumAll(tx, []string{"a", "b"})
	})
}

func get(tx *engine.Tx, k string) (model.Value, error) {
	return tx.Read(model.Obj(k))
}

func sumAll(tx *engine.Tx, keys []string) error {
	for _, k := range keys {
		if _, err := tx.Read(model.Obj(k)); err != nil {
			return err
		}
	}
	return nil
}

func put(tx *engine.Tx, k string, v model.Value) error {
	return tx.Write(model.Obj(k), v)
}

func move(tx *engine.Tx, from, to string) error {
	v, err := tx.Read(model.Obj(from))
	if err != nil {
		return err
	}
	return put(tx, to, v)
}
