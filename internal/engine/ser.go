package engine

import (
	"sian/internal/model"
	"sync"
)

// serProtocol implements serializability with strict two-phase locking
// over a single-version store. Read locks are taken at read time,
// write locks at commit time (still two-phase: all locks are held
// until the transaction ends). Lock conflicts use a no-wait policy —
// the requester aborts with ErrConflict and Transact retries — which
// trades extra aborts for deadlock freedom.
//
// It is the independent SER oracle: the workload tests and sitables run
// it beside SSI (si.go + ssi.go) and expect the same verdicts, so it
// deliberately shares nothing with that path — no storage driver, no
// snapshots, no timestamps — and a bug there cannot hide in both.
type serProtocol struct {
	mu    sync.Mutex
	vals  map[model.Obj]model.Value
	locks map[model.Obj]*lockState
}

type lockState struct {
	readers map[*serTx]bool
	writer  *serTx
}

func newSERProtocol() *serProtocol {
	return &serProtocol{
		vals:  make(map[model.Obj]model.Value),
		locks: make(map[model.Obj]*lockState),
	}
}

func (p *serProtocol) ensureSite(int) {}

func (p *serProtocol) close() error { return nil }

func (p *serProtocol) begin(int, txProtocol) (txProtocol, error) {
	return &serTx{p: p, held: make(map[model.Obj]bool)}, nil
}

func (p *serProtocol) lockFor(x model.Obj) *lockState {
	ls, ok := p.locks[x]
	if !ok {
		ls = &lockState{readers: make(map[*serTx]bool)}
		p.locks[x] = ls
	}
	return ls
}

type serTx struct {
	p    *serProtocol
	held map[model.Obj]bool // objects on which we hold a (read) lock
	done bool
}

func (t *serTx) read(x model.Obj) (model.Value, error) {
	p := t.p
	p.mu.Lock()
	defer p.mu.Unlock()
	ls := p.lockFor(x)
	if ls.writer != nil && ls.writer != t {
		return 0, ErrConflict
	}
	ls.readers[t] = true
	t.held[x] = true
	v, ok := p.vals[x]
	if !ok {
		return 0, ErrUninitialized
	}
	return v, nil
}

// commit upgrades to exclusive locks on the write set, applies the
// writes and releases every lock. It is terminal: locks are released
// whether it succeeds or conflicts.
func (t *serTx) commit(req commitReq) (uint64, error) {
	order, vals := req.order, req.vals
	p := t.p
	p.mu.Lock()
	defer p.mu.Unlock()
	defer t.releaseLocked()
	for _, x := range order {
		ls := p.lockFor(x)
		if ls.writer != nil && ls.writer != t {
			return 0, ErrConflict
		}
		otherReaders := len(ls.readers)
		if ls.readers[t] {
			otherReaders--
		}
		if otherReaders > 0 {
			return 0, ErrConflict
		}
	}
	for _, x := range order {
		ls := p.lockFor(x)
		ls.writer = t
		t.held[x] = true
	}
	for i, x := range order {
		p.vals[x] = vals[i]
	}
	return 0, nil
}

func (t *serTx) abort() {
	t.p.mu.Lock()
	defer t.p.mu.Unlock()
	t.releaseLocked()
}

// releaseLocked drops every lock held by t. Callers hold p.mu.
func (t *serTx) releaseLocked() {
	if t.done {
		return
	}
	t.done = true
	for x := range t.held {
		ls := t.p.locks[x]
		if ls == nil {
			continue
		}
		delete(ls.readers, t)
		if ls.writer == t {
			ls.writer = nil
		}
	}
	t.held = nil
}
