// Quickstart: build the write-skew history of Figure 2(d) by hand,
// certify it against serializability, snapshot isolation and parallel
// snapshot isolation, and construct the Theorem 10(i) execution
// certificate for SI.
package main

import (
	"fmt"
	"log"

	"sian"
)

func main() {
	// Two clients each check the combined balance of two accounts
	// (60 + 60 ≥ 100) and withdraw 100 from their own account — the
	// classic write skew.
	h := sian.NewHistory(
		sian.Session{ID: "alice", Transactions: []sian.Transaction{
			sian.NewTransaction("withdraw-1",
				sian.Read("acct1", 60), sian.Read("acct2", 60),
				sian.Write("acct1", -40)),
		}},
		sian.Session{ID: "bob", Transactions: []sian.Transaction{
			sian.NewTransaction("withdraw-2",
				sian.Read("acct1", 60), sian.Read("acct2", 60),
				sian.Write("acct2", -40)),
		}},
	)

	// Certify against each model. The default options add an
	// initialisation transaction; here the accounts start at 60, so we
	// set the initial value explicitly.
	opts := sian.CertifyOptions{PinInit: true, InitValue: 60, Budget: 100000}
	for _, m := range []sian.Model{sian.SER, sian.SI, sian.PSI, sian.PC} {
		res, err := sian.Certify(h, m, opts)
		if err != nil {
			log.Fatalf("certify %v: %v", m, err)
		}
		fmt.Printf("%-3v allows the write skew: %v\n", m, res.Member)
	}

	// For SI, build the abstract execution certificate of Theorem
	// 10(i): visibility and commit orders satisfying all SI axioms
	// whose dependency graph matches the witness.
	opts.BuildExecution = true
	res, err := sian.Certify(h, sian.SI, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := sian.VerifyExecution(res.Graph, sian.SI, res.Execution); err != nil {
		log.Fatalf("certificate verification failed: %v", err)
	}
	fmt.Printf("\nSI execution certificate verified: VIS has %d edges, CO has %d edges\n",
		res.Execution.VIS.Size(), res.Execution.CO.Size())
	fmt.Println("(the two withdrawals are unrelated by VIS — neither saw the other's write)")
}
