package workload

import (
	"fmt"

	"sian/internal/chopping"
	"sian/internal/model"
	"sian/internal/robustness"
)

// objs is shorthand for building object-set literals.
func objs(xs ...model.Obj) []model.Obj { return xs }

// TransferChopped is the transfer program of Figure 4 chopped into two
// pieces: "acct1 = acct1 - 100" and "acct2 = acct2 + 100".
func TransferChopped() chopping.Program {
	return chopping.NewProgram("transfer",
		chopping.NewPiece("acct1=acct1-100", objs(objAcct1), objs(objAcct1)),
		chopping.NewPiece("acct2=acct2+100", objs(objAcct2), objs(objAcct2)),
	)
}

// Lookup1 returns the single-piece program reading acct1 (Figure 6).
func Lookup1() chopping.Program {
	return chopping.NewProgram("lookup1",
		chopping.NewPiece("return acct1", objs(objAcct1), nil),
	)
}

// Lookup2 returns the single-piece program reading acct2 (Figure 6).
func Lookup2() chopping.Program {
	return chopping.NewProgram("lookup2",
		chopping.NewPiece("return acct2", objs(objAcct2), nil),
	)
}

// LookupAll returns the single-piece program reading both accounts
// (Figure 5).
func LookupAll() chopping.Program {
	return chopping.NewProgram("lookupAll",
		chopping.NewPiece("return acct1+acct2", objs(objAcct1, objAcct2), nil),
	)
}

// Fig5Programs is {transfer, lookupAll}: its static chopping graph
// contains the SI-critical cycle (8), so the chopping is incorrect
// under SI.
func Fig5Programs() []chopping.Program {
	return []chopping.Program{TransferChopped(), LookupAll()}
}

// Fig6Programs is {transfer, lookup1, lookup2}: no critical cycles;
// the chopping is correct under SI.
func Fig6Programs() []chopping.Program {
	return []chopping.Program{TransferChopped(), Lookup1(), Lookup2()}
}

// Fig11Programs is the Appendix B.1 example {write1, write2}
//
//	session write1 { tx { var1 = x }; tx { y = var1 } }
//	session write2 { tx { var2 = y }; tx { x = var2 } }
//
// whose chopping is correct under SI but not under serializability
// (cycle (9) is SER-critical but not SI-critical). The session-local
// variables var1/var2 are not shared objects and do not appear in the
// read/write sets.
func Fig11Programs() []chopping.Program {
	write1 := chopping.NewProgram("write1",
		chopping.NewPiece("var1=x", objs(objX), nil),
		chopping.NewPiece("y=var1", nil, objs(objY)),
	)
	write2 := chopping.NewProgram("write2",
		chopping.NewPiece("var2=y", objs(objY), nil),
		chopping.NewPiece("x=var2", nil, objs(objX)),
	)
	return []chopping.Program{write1, write2}
}

// Fig12Programs is the Appendix B.2 example
//
//	session write1 { tx { x = post1 } }
//	session write2 { tx { y = post2 } }
//	session read1  { tx { a = y }; tx { b = x } }
//	session read2  { tx { a = x }; tx { b = y } }
//
// whose chopping is correct under PSI but not under SI (cycle (10) is
// SI-critical but not PSI-critical).
func Fig12Programs() []chopping.Program {
	write1 := chopping.NewProgram("write1",
		chopping.NewPiece("x=post1", nil, objs(objX)),
	)
	write2 := chopping.NewProgram("write2",
		chopping.NewPiece("y=post2", nil, objs(objY)),
	)
	read1 := chopping.NewProgram("read1",
		chopping.NewPiece("a=y", objs(objY), nil),
		chopping.NewPiece("b=x", objs(objX), nil),
	)
	read2 := chopping.NewProgram("read2",
		chopping.NewPiece("a=x", objs(objX), nil),
		chopping.NewPiece("b=y", objs(objY), nil),
	)
	return []chopping.Program{write1, write2, read1, read2}
}

// WriteSkewApp is the §6.1 motivating application: two withdrawal
// transactions that each read both accounts and write one of them. It
// is not robust against SI — the static dependency graph has the cycle
// withdraw1 —RW→ withdraw2 —RW→ withdraw1 with two adjacent
// anti-dependencies (the write-skew shape of Figure 2(d)).
func WriteSkewApp() robustness.App {
	return robustness.SingleTxApp(
		robustness.NewTxSpec("withdraw1", objs(objAcct1, objAcct2), objs(objAcct1)),
		robustness.NewTxSpec("withdraw2", objs(objAcct1, objAcct2), objs(objAcct2)),
	)
}

// WriteSkewAppFixed materialises the conflict: both withdrawals also
// write a common object ("total"), so SI's write-conflict detection
// orders them and the application becomes robust against SI — the
// standard fix for write skew.
func WriteSkewAppFixed() robustness.App {
	total := model.Obj("total")
	return robustness.SingleTxApp(
		robustness.NewTxSpec("withdraw1", objs(objAcct1, objAcct2, total), objs(objAcct1, total)),
		robustness.NewTxSpec("withdraw2", objs(objAcct1, objAcct2, total), objs(objAcct2, total)),
	)
}

// LongForkApp is the §6.2 example: two writers and two readers of x
// and y (the programs of Figure 12 with unchopped reads). It is robust
// against SI towards serializability (writers read nothing, so no two
// anti-dependencies can be adjacent) but *not* robust against parallel
// SI towards SI: the static dependency graph has a cycle with two
// non-adjacent anti-dependencies — the long-fork shape of Figure 2(c).
func LongForkApp() robustness.App {
	return robustness.SingleTxApp(
		robustness.NewTxSpec("write1", nil, objs(objX)),
		robustness.NewTxSpec("write2", nil, objs(objY)),
		robustness.NewTxSpec("read1", objs(objX, objY), nil),
		robustness.NewTxSpec("read2", objs(objX, objY), nil),
	)
}

// TransferApp is the unchopped Figure 4 application: one transfer and
// the two single-account lookups. Robust against SI (no two adjacent
// anti-dependencies are possible) and against parallel SI towards SI.
func TransferApp() robustness.App {
	return robustness.SingleTxApp(
		robustness.NewTxSpec("transfer", objs(objAcct1, objAcct2), objs(objAcct1, objAcct2)),
		robustness.NewTxSpec("lookup1", objs(objAcct1), nil),
		robustness.NewTxSpec("lookup2", objs(objAcct2), nil),
	)
}

// CounterApp is n one-transaction sessions that each increment one
// shared counter x (read it, write it). Every pair conflicts on x, so
// no anti-dependency is vulnerable and the application is robust
// against SI and against parallel SI; yet its static dependency graph
// is complete, with more simple cycles than any enumeration can visit
// once n passes about ten. testdata/counter40_app.json is CounterApp(40).
func CounterApp(n int) robustness.App {
	txs := make([]robustness.TxSpec, n)
	for i := range txs {
		txs[i] = robustness.NewTxSpec(fmt.Sprintf("incr%d", i+1), objs(objX), objs(objX))
	}
	return robustness.SingleTxApp(txs...)
}

// CounterPrograms is CounterApp as n one-piece programs: a correct
// chopping at every criticality level, since no predecessor edge
// exists. testdata/counter40_programs.json is CounterPrograms(40).
func CounterPrograms(n int) []chopping.Program {
	out := make([]chopping.Program, n)
	for i := range out {
		out[i] = chopping.NewProgram(fmt.Sprintf("incr%d", i+1), chopping.NewPiece("x=x+1", objs(objX), objs(objX)))
	}
	return out
}
