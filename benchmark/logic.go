package main

import (
	"fmt"
	"math/rand"

	"sian/internal/model"
)

// kvTx is the transaction handle the workloads program against; both
// *engine.Tx and *siwire.ClientTx satisfy it, so one transaction body
// serves the in-process and the wire workloads.
type kvTx interface {
	Read(model.Obj) (model.Value, error)
	Write(model.Obj, model.Value) error
}

// logic is one session's transaction generator. prepare draws the next
// transaction from the session's RNG (outside the timed region); body
// runs it and may run again on a conflict retry, so it must not touch
// bookkeeping; committed records the acknowledged outcome.
type logic interface {
	prepare(rng *rand.Rand)
	body(tx kvTx) error
	committed()
	readOnly() bool
}

const (
	sessions     = 2
	ownKeys      = 1024 // keys each session owns on the disjoint workloads
	hotCounters  = 2
	poolKeys     = 100_000 // mem_readmostly's shared pool, in pairs
	roPairs      = 4       // a read-only transaction reads 4 pairs = 8 keys
	writerShare  = 10      // percent of mem_readmostly transactions that write
	bytesPerVal  = 8
	freshPerSess = 1 << 40 // room for each session's fresh pair values
)

func ownKey(w, i int) model.Obj { return model.Obj(fmt.Sprintf("d%d_%04d", w, i)) }
func hotKey(i int) model.Obj    { return model.Obj(fmt.Sprintf("hot%d", i)) }
func poolKey(i int) model.Obj   { return model.Obj(fmt.Sprintf("p%06d", i)) }

// keyOwner recovers the owning session from a private key's name.
func keyOwner(x model.Obj) int {
	if len(x) > 2 && x[0] == 'd' && x[1] >= '0' && x[1] < '0'+sessions {
		return int(x[1] - '0')
	}
	return -1
}

func poolKeySet() []model.Obj {
	keys := make([]model.Obj, poolKeys)
	for i := range keys {
		keys[i] = poolKey(i)
	}
	return keys
}

// ownSet is a session's private keys with the number of increments it
// has seen acknowledged on each — the expected final values.
type ownSet struct {
	keys   []model.Obj
	expect []model.Value
}

func newOwnSet(w int) ownSet {
	o := ownSet{keys: make([]model.Obj, ownKeys), expect: make([]model.Value, ownKeys)}
	for i := range o.keys {
		o.keys[i] = ownKey(w, i)
	}
	return o
}

func (o *ownSet) owned() *ownSet { return o }

// keyOwning is a logic with private keys.
type keyOwning interface{ owned() *ownSet }

// increment reads x and writes back the value plus one. Per key the
// values are 1, 2, 3, …: unique per object, which is what keeps the
// recovered log traceable for certification.
func increment(tx kvTx, x model.Obj) error {
	v, err := tx.Read(x)
	if err != nil {
		return err
	}
	return tx.Write(x, v+1)
}

// disjointLogic: 2 reads + 2 read-modify-writes on the session's own
// keys (mem_disjoint, wal_fsync, wire_volatile).
type disjointLogic struct {
	ownSet
	pick      [4]int
	userBytes int64 // key+value bytes written by acknowledged commits
}

func newDisjointLogic(w int) *disjointLogic {
	return &disjointLogic{ownSet: newOwnSet(w)}
}

func (l *disjointLogic) prepare(rng *rand.Rand) {
	for i := range l.pick {
	draw:
		for {
			l.pick[i] = rng.Intn(len(l.keys))
			for _, p := range l.pick[:i] {
				if p == l.pick[i] {
					continue draw
				}
			}
			break
		}
	}
}

func (l *disjointLogic) body(tx kvTx) error {
	for _, p := range l.pick[:2] {
		if _, err := tx.Read(l.keys[p]); err != nil {
			return err
		}
	}
	for _, p := range l.pick[2:] {
		if err := increment(tx, l.keys[p]); err != nil {
			return err
		}
	}
	return nil
}

func (l *disjointLogic) committed() {
	for _, p := range l.pick[2:] {
		l.expect[p]++
		l.userBytes += int64(len(l.keys[p])) + bytesPerVal
	}
}

func (l *disjointLogic) readOnly() bool { return false }

// hotLogic: increment one of the shared hot counters plus one private
// key (mem_hot).
type hotLogic struct {
	ownSet
	hotKeys  [hotCounters]model.Obj
	hotAcked [hotCounters]model.Value
	hot, own int
}

func newHotLogic(w int) *hotLogic {
	l := &hotLogic{ownSet: newOwnSet(w)}
	for i := range l.hotKeys {
		l.hotKeys[i] = hotKey(i)
	}
	return l
}

func (l *hotLogic) prepare(rng *rand.Rand) {
	l.hot, l.own = rng.Intn(hotCounters), rng.Intn(len(l.keys))
}

func (l *hotLogic) body(tx kvTx) error {
	if err := increment(tx, l.hotKeys[l.hot]); err != nil {
		return err
	}
	return increment(tx, l.keys[l.own])
}

func (l *hotLogic) committed() {
	l.hotAcked[l.hot]++
	l.expect[l.own]++
}

func (l *hotLogic) readOnly() bool { return false }

// readMostlyLogic: 90 % read-only transactions over 4 pairs of the
// shared pool, 10 % writers that set both keys of one pair to the same
// fresh value (mem_readmostly). A reader that sees the two keys of a
// pair differ has seen half a commit.
type readMostlyLogic struct {
	pool   []model.Obj // shared, read-only: key names are built once
	sess   int
	writer bool
	pairs  [roPairs]int
	seq    model.Value
	fresh  model.Value
	torn   int64 // pairs read unequal inside one transaction
	tornEx string
}

func (l *readMostlyLogic) prepare(rng *rand.Rand) {
	l.writer = rng.Intn(100) < writerShare
	for i := range l.pairs {
		l.pairs[i] = rng.Intn(poolKeys / 2)
	}
	if l.writer {
		l.seq++
		l.fresh = model.Value(l.sess+1)*freshPerSess + l.seq
	}
}

func (l *readMostlyLogic) body(tx kvTx) error {
	n := roPairs
	if l.writer {
		n = 1
	}
	for _, p := range l.pairs[:n] {
		a, b := l.pool[2*p], l.pool[2*p+1]
		va, err := tx.Read(a)
		if err != nil {
			return err
		}
		vb, err := tx.Read(b)
		if err != nil {
			return err
		}
		if va != vb {
			l.torn++
			l.tornEx = fmt.Sprintf("%s=%d %s=%d", a, va, b, vb)
		}
		if l.writer {
			if err := tx.Write(a, l.fresh); err != nil {
				return err
			}
			if err := tx.Write(b, l.fresh); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *readMostlyLogic) committed()     {}
func (l *readMostlyLogic) readOnly() bool { return !l.writer }
