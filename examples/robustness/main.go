// Robustness: the §6 analyses end to end.
//
// First the static analysis shows the withdrawal application of Figure
// 2(d) is not robust against SI (write skew possible) and that the
// classical materialised-conflict fix makes it robust. The same broken
// application is then written as real code against the engine API —
// `silint ./examples/robustness` finds the write skew in it statically
// — and finally the anomaly is realised operationally on overlapping
// snapshots and the recorded history is certified SI-but-not-SER.
package main

import (
	"fmt"
	"log"

	"sian"
)

func main() {
	accounts := []sian.Obj{"acct1", "acct2"}

	// Static analysis of the broken application: each withdrawal reads
	// both accounts but writes only its own.
	broken := sian.SingleTxApp(
		sian.NewTxSpec("withdraw1", accounts, []sian.Obj{"acct1"}),
		sian.NewTxSpec("withdraw2", accounts, []sian.Obj{"acct2"}),
	)
	report("withdrawals (broken)", broken)

	// The fix: both withdrawals also update a common "total" object,
	// so SI's write-conflict detection serialises them.
	withTotal := append([]sian.Obj{"total"}, accounts...)
	fixed := sian.SingleTxApp(
		sian.NewTxSpec("withdraw1", withTotal, []sian.Obj{"acct1", "total"}),
		sian.NewTxSpec("withdraw2", withTotal, []sian.Obj{"acct2", "total"}),
	)
	report("withdrawals (materialised conflict)", fixed)

	// The broken application as engine code. Run sequentially the two
	// withdrawals are harmless, but the shape is exactly Figure 2(d):
	// silint extracts {acct1, acct2}/{acct1} and {acct1, acct2}/{acct2}
	// from these closures and reports the write skew statically.
	db, err := sian.NewDB(sian.EngineSI, sian.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.Initialize(map[sian.Obj]sian.Value{"acct1": 60, "acct2": 60}); err != nil {
		log.Fatal(err)
	}
	alice := db.Session("alice")
	bob := db.Session("bob")
	if err := alice.TransactNamed("withdraw1", func(t *sian.EngineTx) error {
		v1, err := t.Read("acct1")
		if err != nil {
			return err
		}
		v2, err := t.Read("acct2")
		if err != nil {
			return err
		}
		if v1+v2 >= 100 {
			return t.Write("acct1", v1-100)
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	if err := bob.TransactNamed("withdraw2", func(t *sian.EngineTx) error {
		v1, err := t.Read("acct1")
		if err != nil {
			return err
		}
		v2, err := t.Read("acct2")
		if err != nil {
			return err
		}
		if v1+v2 >= 100 {
			return t.Write("acct2", v2-100)
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("engine: sequential withdrawals kept the invariant (only one succeeded)")

	// Operational demonstration of the anomaly on a fresh database:
	// stage the same two withdrawals on overlapping snapshots with
	// manual transactions.
	db2, err := sian.NewDB(sian.EngineSI, sian.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Initialize(map[sian.Obj]sian.Value{"acct1": 60, "acct2": 60}); err != nil {
		log.Fatal(err)
	}
	carol := db2.Session("carol")
	dan := db2.Session("dan")
	t1, err := carol.Begin("withdraw1-staged")
	if err != nil {
		log.Fatal(err)
	}
	t2, err := dan.Begin("withdraw2-staged")
	if err != nil {
		log.Fatal(err)
	}
	v11, err := t1.Read("acct1")
	if err != nil {
		log.Fatal(err)
	}
	v12, err := t1.Read("acct2")
	if err != nil {
		log.Fatal(err)
	}
	v21, err := t2.Read("acct1")
	if err != nil {
		log.Fatal(err)
	}
	v22, err := t2.Read("acct2")
	if err != nil {
		log.Fatal(err)
	}
	if v11+v12 >= 100 {
		if err := t1.Write("acct1", v11-100); err != nil {
			log.Fatal(err)
		}
	}
	if v21+v22 >= 100 {
		if err := t2.Write("acct2", v22-100); err != nil {
			log.Fatal(err)
		}
	}
	if err := t1.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("engine: both staged withdrawals committed under SI (write skew realised)")

	h := db2.History()
	opts := sian.CertifyOptions{NoInit: true, PinInit: true, Budget: 100000}
	si, err := sian.Certify(h, sian.SI, opts)
	if err != nil {
		log.Fatal(err)
	}
	ser, err := sian.Certify(h, sian.SER, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded history: SI-allowed=%v, serializable=%v\n", si.Member, ser.Member)
}

func report(name string, app sian.App) {
	w, err := sian.CheckSIRobust(app)
	if err != nil {
		log.Fatal(err)
	}
	if w == nil {
		fmt.Printf("%s: ROBUST against SI — only serializable behaviour\n", name)
	} else {
		fmt.Printf("%s: NOT robust against SI — dangerous cycle %s\n", name, w)
	}
}
