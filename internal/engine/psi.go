package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/storage"
)

// psiProtocol implements parallel snapshot isolation in the style of
// Walter [31]. The paper's Definition 20 keeps every SI axiom except
// PREFIX, which TRANSVIS replaces, so each site (replica) is an SI site:
// an siProtocol over its own in-memory store, with its own snapshots,
// lock windows, publish gate and compaction. Sessions are pinned to
// sites. Only two parts are PSI's own:
//
//   - Walter's write-conflict rule, NOCONFLICT across sites: a writer
//     must have seen the previous write of every object it writes.
//     psiSite.vet checks it inside the local commit window.
//   - Causal delivery: psiSite.append logs every commit at its origin
//     with the vector of log prefixes its site had applied, and another
//     site applies it, through its own commit window, only once it has
//     applied those prefixes.
//
// Two transactions committed at different sites without mutual
// visibility may be observed in different orders by different sites —
// the long-fork anomaly of Figure 2(c), allowed by PSI and forbidden by
// SI. DESIGN.md §10 gives the argument.
type psiProtocol struct {
	manual bool
	// parks is every site's engine_publish_parks_total.
	parks *obs.Counter

	// mu is the PSI mutex: it guards every field below and every site's
	// applied vector. Lock order: a site's applyMu → its shard locks → mu.
	mu    sync.Mutex
	sites []*psiSite
	// logs[o] is the suffix of origin o's commit log that some site has
	// not applied; bases[o] counts the entries before it, which
	// truncation folded into checkpoint.
	logs       [][]psiCommit
	bases      []int
	checkpoint map[model.Obj]model.Value
	// last[x] is the global last writer of x.
	last          map[model.Obj]psiRef
	sinceTruncate int

	stop chan struct{}
	wg   sync.WaitGroup
}

// truncateEvery is the number of commits between log truncations.
const truncateEvery = 256

// psiRef names a commit by its origin and sequence number.
type psiRef struct{ origin, seq int }

// psiCommit is one committed transaction in an origin log.
type psiCommit struct {
	origin int
	seq    int   // 1-based position in the origin's log; 0 for a checkpoint
	dep    []int // the origin's applied vector when the commit was logged
	order  []model.Obj
	vals   []model.Value // vals[i] is the value written to order[i]
}

// psiSite is one replica: an SI site plus its place in causal delivery.
type psiSite struct {
	p  *psiProtocol
	id int
	si *siProtocol
	// applyMu serialises the remote applies at this site.
	applyMu sync.Mutex
	// applied[o] is the length of origin o's log prefix this site has
	// applied, its own commits included. Guarded by p.mu.
	applied []int
}

func newPSIProtocol(cfg Config, parks *obs.Counter) *psiProtocol {
	p := &psiProtocol{
		manual:     cfg.ManualPropagation,
		parks:      parks,
		checkpoint: make(map[model.Obj]model.Value),
		last:       make(map[model.Obj]psiRef),
		stop:       make(chan struct{}),
	}
	if !p.manual {
		p.wg.Add(1)
		go p.propagateLoop()
	}
	return p
}

// ensureSite adds sites up to site. Callers (DB.Session) serialise it,
// and it is the only writer of p.sites.
func (p *psiProtocol) ensureSite(site int) {
	for len(p.sites) <= site {
		p.join()
	}
}

// join adds a site. It starts from the checkpoint, so its applied
// vector is bases, and then replays the retained logs — all of them, or
// under manual propagation only what site 0 has applied, the state a
// copy of site 0 would hold. Replaying the logs alone would not do:
// truncation has dropped entries the new site needs.
func (p *psiProtocol) join() {
	s := &psiSite{p: p, si: newSIProtocol(Config{}, p.parks)}
	s.si.psi = s
	s.applyMu.Lock()
	p.mu.Lock()
	s.id = len(p.sites)
	p.logs = append(p.logs, nil)
	p.bases = append(p.bases, 0)
	for _, o := range p.sites {
		o.applied = append(o.applied, 0)
	}
	s.applied = slices.Clone(p.bases)
	var limit []int
	if p.manual && s.id > 0 {
		limit = slices.Clone(p.sites[0].applied)
	}
	var ck psiCommit
	for x, v := range p.checkpoint {
		ck.order, ck.vals = append(ck.order, x), append(ck.vals, v)
	}
	p.sites = append(p.sites, s)
	p.mu.Unlock()
	// applyMu keeps the propagator out until the checkpoint is in.
	if len(ck.order) > 0 {
		s.apply(ck)
	}
	s.applyMu.Unlock()
	s.catchUp(limit)
}

func (p *psiProtocol) close() error {
	close(p.stop)
	p.wg.Wait()
	return nil
}

// propagateLoop drives background propagation until close.
func (p *psiProtocol) propagateLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(200 * time.Microsecond)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.propagateOnce()
		}
	}
}

// propagateOnce brings every site up to date with the logs and reports
// whether any commit was applied.
func (p *psiProtocol) propagateOnce() bool {
	p.mu.Lock()
	sites := slices.Clone(p.sites)
	p.mu.Unlock()
	n := 0
	for _, s := range sites {
		n += s.catchUp(nil)
	}
	return n > 0
}

// nextLocked returns a logged commit that extends the prefix vector
// have, stays within limit (nil: the whole logs) and whose dependencies
// have covers. Callers hold p.mu.
func (p *psiProtocol) nextLocked(have, limit []int) (psiCommit, bool) {
next:
	for o, log := range p.logs {
		i := have[o] - p.bases[o]
		if i >= len(log) || limit != nil && have[o] >= limit[o] {
			continue
		}
		for d, need := range log[i].dep {
			if have[d] < need {
				continue next
			}
		}
		return log[i], true
	}
	return psiCommit{}, false
}

// truncateLocked folds into the checkpoint, in causal order, every log
// entry all sites have applied, and drops it from its log. Those
// entries form a causally closed set (each site's applied vector is
// one), so the fold never stalls. Callers hold p.mu.
func (p *psiProtocol) truncateLocked() {
	floor := slices.Clone(p.sites[0].applied)
	for _, s := range p.sites[1:] {
		for o, a := range s.applied {
			floor[o] = min(floor[o], a)
		}
	}
	for {
		c, ok := p.nextLocked(p.bases, floor)
		if !ok {
			return
		}
		for i, x := range c.order {
			p.checkpoint[x] = c.vals[i]
		}
		p.logs[c.origin] = p.logs[c.origin][1:]
		p.bases[c.origin]++
	}
}

// catchUp applies, in causal order, every logged commit this site has
// not applied, up to the prefix vector limit (nil: the whole logs), and
// returns how many it applied.
func (s *psiSite) catchUp(limit []int) int {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	for n := 0; ; n++ {
		s.p.mu.Lock()
		c, ok := s.p.nextLocked(s.applied, limit)
		s.p.mu.Unlock()
		if !ok {
			return n
		}
		s.apply(c)
	}
}

// apply installs a remote commit (or the checkpoint) at the site
// through the site's own commit window: a commit that cannot abort. The
// applied vector is bumped before publish, so a local commit whose
// snapshot includes c also lists c among its dependencies. Callers hold
// s.applyMu.
func (s *psiSite) apply(c psiCommit) {
	si := s.si
	lock := si.store.LockObjs(c.order)
	ts := si.nextTS.Add(1)
	superseding := 0
	for i, x := range c.order {
		if lock.LatestTS(x) != 0 {
			superseding++
		}
		// ts was allocated under every shard the commit writes, so it
		// exceeds every version there.
		if err := lock.Install(x, storage.Version{Val: c.vals[i], TS: ts}); err != nil {
			panic(fmt.Sprintf("engine: psi apply: %v", err))
		}
	}
	lock.Unlock()
	if c.seq > 0 {
		s.p.mu.Lock()
		s.applied[c.origin] = c.seq
		s.p.mu.Unlock()
	}
	si.publish(ts, true)
	si.compactIfDue(superseding)
}

// vet is Walter's rule, called inside a local commit's window once
// first-committer-wins has passed and before the timestamp. It passes
// if the global last writer of each written object is in this site's
// applied vector. A commit of this site always is, and
// first-committer-wins has already ordered it before this one. On
// success it returns holding p.mu, which append releases.
func (s *psiSite) vet(order []model.Obj) bool {
	s.p.mu.Lock()
	for _, x := range order {
		if w, ok := s.p.last[x]; ok && s.applied[w.origin] < w.seq {
			s.p.mu.Unlock()
			return false
		}
	}
	return true
}

// append logs a vetted commit after its timestamp and installs and
// before its window's Unlock: it takes the next sequence number,
// captures the dependency vector and claims the written objects. A
// remote commit that depends on it is therefore applied here only
// after it has its timestamp, and takes a later one. order and vals are
// the commit request's, valid only during the commit, so the log keeps
// copies.
func (s *psiSite) append(order []model.Obj, vals []model.Value) {
	p := s.p
	c := psiCommit{
		origin: s.id,
		seq:    s.applied[s.id] + 1,
		dep:    slices.Clone(s.applied),
		order:  slices.Clone(order),
		vals:   slices.Clone(vals),
	}
	for _, x := range order {
		p.last[x] = psiRef{s.id, c.seq}
	}
	p.logs[s.id] = append(p.logs[s.id], c)
	s.applied[s.id] = c.seq
	if p.sinceTruncate++; p.sinceTruncate >= truncateEvery {
		p.sinceTruncate = 0
		p.truncateLocked()
	}
	p.mu.Unlock()
}

func (p *psiProtocol) begin(site int, prev txProtocol) (txProtocol, error) {
	p.mu.Lock()
	if site >= len(p.sites) {
		p.mu.Unlock()
		return nil, fmt.Errorf("engine: psi: unknown site %d", site)
	}
	s := p.sites[site]
	p.mu.Unlock()
	if !p.manual {
		// Refresh the site before snapshotting, so conflict-aborted
		// transactions make progress on retry instead of spinning on a
		// stale snapshot.
		s.catchUp(nil)
	}
	return s.si.begin(site, prev)
}

// gc compacts every site through siProtocol.gc and returns the total
// number of versions discarded.
func (p *psiProtocol) gc() int {
	p.mu.Lock()
	sites := slices.Clone(p.sites)
	p.mu.Unlock()
	total := 0
	for _, s := range sites {
		total += s.si.gc()
	}
	return total
}

// Flush exposes PSI log propagation on the DB: it blocks until every
// replica has applied every committed transaction. For non-PSI engines
// it is a no-op.
func (db *DB) Flush() {
	if p, ok := db.impl.(*psiProtocol); ok {
		for p.propagateOnce() {
		}
	}
}

// PropagateOnce applies at most one round of causally-ready log
// entries at every replica; useful with Config.ManualPropagation to
// stage anomalies step by step. It reports whether anything was
// applied. For non-PSI engines it returns false.
func (db *DB) PropagateOnce() bool {
	if p, ok := db.impl.(*psiProtocol); ok {
		return p.propagateOnce()
	}
	return false
}
