package engine_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sian/internal/depgraph"
	. "sian/internal/engine"
	"sian/internal/model"
)

// TestPSIChainsStayBounded: PSI sites compact on their own, local
// commits through the SI commit path and remote applies through the
// same counting. One site runs 20 000 read-modify-writes on 4 keys while
// automatic propagation applies them at the other, with no Compact call
// anywhere; after Flush one Compact finds at most a pass's worth of
// garbage per site (without automatic passes it drops ~40 000), and
// both sites read the final counters.
func TestPSIChainsStayBounded(t *testing.T) {
	t.Parallel()
	const commits = 20_000
	keys := []model.Obj{"k0", "k1", "k2", "k3"}
	db := newDB(t, PSI, Config{Sites: 2})
	init := make(map[model.Obj]model.Value, len(keys))
	for _, x := range keys {
		init[x] = 0
	}
	if err := db.Initialize(init); err != nil {
		t.Fatal(err)
	}
	w := db.Session("w") // site 1; the init session took site 0
	r := db.Session("r") // site 0
	for i := 0; i < commits; i++ {
		x := keys[i%len(keys)]
		if err := w.Transact(func(tx *Tx) error {
			v, err := tx.Read(x)
			if err != nil {
				return err
			}
			return tx.Write(x, v+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush()
	if d := db.Compact(); d > 2*MinPass {
		t.Errorf("Compact after %d commits dropped %d versions, want ≤ %d", commits, d, 2*MinPass)
	}
	for _, s := range []*Session{w, r} {
		readCounters(t, s, keys, func(int) int64 { return commits / int64(len(keys)) })
	}
}

// TestPSISiteJoinsUnderLoad: new sites join while others commit. Four
// sessions run hot-key read-modify-writes with automatic propagation
// while eight more, each on a new site, join one at a time and run the
// same loop. Every loop commits more than a truncation interval, so
// each join starts from a checkpoint the truncations folded plus the
// retained logs. After Flush every site reads counters equal to the
// acknowledged increments, and the history certifies PSI.
//
// The offline checker allows at most 64 writers per object, so the hot
// pair moves on every hotWrites increments (all sessions draw from one
// ticket counter and contend on the same pair), and the background
// sessions commit once per two of the joiner's commits.
func TestPSISiteJoinsUnderLoad(t *testing.T) {
	t.Parallel()
	const (
		background = 4
		joiners    = 8
		perJoiner  = 300
		hotWrites  = 32
		tickets    = joiners * perJoiner * 3 / 2
	)
	keys := make([]model.Obj, tickets/hotWrites*2+2)
	init := make(map[model.Obj]model.Value, len(keys))
	for i := range keys {
		keys[i] = model.Obj(fmt.Sprintf("h%d", i))
		init[keys[i]] = 0
	}
	// One site per session; the audit session wraps around to site 0,
	// the init session's.
	db := newDB(t, PSI, Config{Sites: 1 + background + joiners})
	if err := db.Initialize(init); err != nil {
		t.Fatal(err)
	}
	acked := make([]atomic.Int64, len(keys))
	var ticket atomic.Int64
	rmw := func(s *Session) error {
		n := int(ticket.Add(1) - 1)
		k := n/hotWrites*2 + n%2
		err := s.Transact(func(tx *Tx) error {
			v, err := tx.Read(keys[k])
			if err != nil {
				return err
			}
			return tx.Write(keys[k], v+1)
		})
		if err == nil {
			acked[k].Add(1)
		}
		return err
	}
	sessions := make([]*Session, 0, background+joiners+1)
	pace := make(chan struct{}, tickets)
	var wg sync.WaitGroup
	errs := make([]error, background+1)
	for b := 0; b < background; b++ {
		s := db.Session(fmt.Sprintf("b%d", b))
		sessions = append(sessions, s)
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for range pace {
				if errs[b] == nil {
					errs[b] = rmw(s)
				}
			}
		}(b)
	}
	for j := 0; j < joiners && errs[background] == nil; j++ {
		s := db.Session(fmt.Sprintf("j%d", j))
		sessions = append(sessions, s)
		for i := 0; i < perJoiner && errs[background] == nil; i++ {
			errs[background] = rmw(s)
			if i%2 == 0 {
				pace <- struct{}{}
			}
		}
	}
	close(pace)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	db.Flush()
	for _, s := range append(sessions, db.Session("audit")) {
		readCounters(t, s, keys, func(i int) int64 { return acked[i].Load() })
	}
	if !certifyHistory(t, db, depgraph.PSI) {
		t.Error("history not certified PSI")
	}
}

// readCounters reads every key in one transaction on s and checks the
// i-th against want(i).
func readCounters(t *testing.T, s *Session, keys []model.Obj, want func(i int) int64) {
	t.Helper()
	if err := s.Transact(func(tx *Tx) error {
		for i, x := range keys {
			v, err := tx.Read(x)
			if err != nil {
				return err
			}
			if int64(v) != want(i) {
				t.Errorf("session %s (site %d) reads %s = %d, want %d", s.ID(), s.Site(), x, v, want(i))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
