// Package wal is the durable storage driver: the in-memory store of
// storage/mem behind a write-ahead log, opened with Open and reached
// through the storage.Driver interface.
//
// Commits are made durable before they are visible. The SI engine's
// commit window (storage.Locked) stages the transaction's commit
// record via LogCommit; Unlock appends the length-prefixed, CRC-framed
// record while the window's shard locks are still held — so per-object
// record order in the log matches installed timestamp order — releases
// the shards, and returns only after the record is fdatasync'd. Syncs
// are grouped: concurrent windows append under one mutex and one sync
// covers every record appended before it, so the sync cost amortises
// across overlapping commits. The engine publishes a commit timestamp
// only after Unlock returns, which yields the crash guarantee: an
// acknowledged (published) commit is durable, and — because timestamps
// publish strictly in order — so is every commit before it. What a
// crash can lose is only un-acknowledged tails that no reader ever
// observed.
//
// Segments are preallocated (fallocate, segChunk at a time), so an
// append inside the allocation changes no file size and the group
// sync's fdatasync flushes data without journalling the inode. A
// segment is sealed — cut to its written length and fully fsynced —
// before it is retired at rotation and on Close, so a closed log holds
// exactly its frames; only a crash leaves a zero tail, and recovery
// reads an all-zero remainder of the final segment as its clean end.
//
// Recovery (Open on a non-empty directory) replays the snapshot and
// the log segments, stopping at the first torn or corrupt frame (or
// the zero tail) of the final segment, and streams every replayed
// commit — full op list, reads included — through internal/monitor.
// Startup thereby *certifies* that the recovered state is reachable by
// an SI execution (the paper's Theorem 8/9 arrival-order witness
// machinery, the same code path the online monitor uses); a negative
// verdict refuses to open and reports the witness cycle. See DESIGN.md §12 for why
// monitor-replay certification of the log implies the recovered state
// is SI.
//
// Periodically (Options.SnapshotEvery records) the driver rotates to a
// fresh segment, captures a commit-atomic snapshot of the store's
// latest versions (mem.SnapshotLatest holds every shard lock at once),
// writes it to disk atomically (temp + fsync + rename + dir fsync) and
// deletes the now-covered segments. Replay is conditional on a
// per-object "already newer" check, so a crash anywhere in that
// sequence — before the rename, between rename and deletion — recovers
// correctly: records also covered by the snapshot are skipped, records
// not covered are replayed.
package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/monitor"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
	"sian/internal/storage"
	"sian/internal/storage/mem"
)

// Options parameterises Open. Only Dir is required.
type Options struct {
	// Dir is the log directory (created if absent): segment files
	// wal-NNNNNNNN.log plus at most one snapshot file.
	Dir string
	// NoSync disables fsync entirely (tests and throwaway data): the
	// log is still written, but a machine crash may lose or tear its
	// tail. Process-exit durability is unaffected.
	NoSync bool
	// SnapshotEvery triggers snapshot + log truncation after this many
	// appended records. Zero defaults to 65536; negative disables
	// snapshotting (the log grows without bound).
	SnapshotEvery int
	// SkipCertify disables monitor-replay certification during
	// recovery (replay still runs; the log is still applied).
	SkipCertify bool
	// Model is the consistency model recovery certifies against;
	// zero means depgraph.SI.
	Model depgraph.Model
	// Window bounds the recovery monitor's live window (bounded
	// memory for long logs — the monitor's dense relations are
	// quadratic in the window). Zero defaults to 62: the checker
	// enumerates per-object write orders with a 64-bit mask, and 62
	// live transactions + the one being certified + the init frontier
	// is exactly 64 writers when every transaction hits one hot
	// object, so the default can never go inconclusive on writer
	// count. The verdict stays one-sidedly sound after window
	// collapses (certified ⇒ the full log is a member).
	Window int
	// Metrics receives the driver's wal_* series. Nil disables.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 65536
	}
	if o.Window == 0 {
		o.Window = 62
	}
	if o.Model == depgraph.ModelInvalid {
		o.Model = depgraph.SI
	}
	return o
}

// RecoveryInfo summarises what Open found and replayed.
type RecoveryInfo struct {
	// SnapshotObjects is the number of objects seeded from the
	// snapshot file (0 when none existed).
	SnapshotObjects int
	// Segments is the number of log segment files replayed.
	Segments int
	// Records / Skipped count replayed log records: Skipped records
	// were already covered by the snapshot (per-object conditional
	// replay), Records were applied.
	Records int64
	Skipped int64
	// Commits is the number of applied commit records streamed
	// through the recovery monitor.
	Commits int64
	// TruncatedBytes is the size of the torn/corrupt tail dropped
	// from the final segment (0 for a clean log).
	TruncatedBytes int64
	// MaxTS and LastLSN are the frontier after replay.
	MaxTS   uint64
	LastLSN uint64
	// Certified reports the monitor verdict: the replayed commit
	// stream is a member of the configured model (always false when
	// certification was skipped, with Verdict saying so).
	Certified bool
	// Verdict is the human-readable certification summary.
	Verdict string
	// Violations carries the monitor's anomaly reports when
	// certification failed (witness cycle included).
	Violations []monitor.Violation
}

// CertifyError is returned by Open when recovery replay fails
// certification: the on-disk state is *not* explainable as an SI
// execution, and the driver refuses to serve it.
type CertifyError struct {
	Info RecoveryInfo
}

func (e *CertifyError) Error() string {
	msg := "wal: recovery refused: " + e.Info.Verdict
	for _, v := range e.Info.Violations {
		msg += "\n  " + v.String()
	}
	return msg
}

// Driver is the write-ahead-logged storage driver. Create with Open;
// it implements storage.Driver, storage.Recovered, and its commit
// windows implement storage.CommitLogger and storage.DurableWindow.
type Driver struct {
	opts  Options
	store *mem.Store
	dir   *os.File // open handle on the log directory, for dir fsyncs

	// mu guards the append path: the current segment file, its
	// buffered writer, the LSN counter and rotation.
	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	segIndex uint64
	written  int64 // bytes written to f, buffered ones included
	alloc    int64 // bytes preallocated for f (0: none)
	// prealloc is whether segments are preallocated: only when syncing,
	// and only until the file system says it cannot.
	prealloc bool
	lsn      uint64 // last appended LSN
	frame    []byte // scratch buffer the next frame is built in
	closed   bool
	ioErr    error // first append-path write error; poisons the driver
	// retired holds previous segment files, kept open until Close so
	// a concurrent group-sync never races a file close.
	retired []*os.File
	// recsSinceSnap counts records appended since the last snapshot.
	recsSinceSnap int

	// syncMu guards the group-fsync state; syncCond wakes waiters
	// when a sync round completes.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	synced   uint64 // every LSN ≤ synced is durable
	syncing  bool
	syncErr  error

	snapshotting atomic.Bool
	snapErr      atomic.Pointer[string]
	lastSyncNS   atomic.Int64
	wg           sync.WaitGroup

	recovery RecoveryInfo

	cAppends   *obs.Counter
	cSyncs     *obs.Counter
	cSnapshots *obs.Counter
	gAppended  *obs.Gauge
	gSynced    *obs.Gauge
	hSyncNS    *obs.Histogram
}

// Stats is a point-in-time view of the driver's durability state, for
// health endpoints: the append/sync LSN gap is the fsync lag.
type Stats struct {
	// AppendedLSN is the last log sequence number handed out;
	// SyncedLSN the highest known durable. Appended − Synced is the
	// number of records currently awaiting fsync.
	AppendedLSN uint64
	SyncedLSN   uint64
	// LastSyncUnixNano is the wall clock of the last completed fsync
	// round (0 before the first; always advancing under NoSync).
	LastSyncUnixNano int64
	// Segment is the current segment index.
	Segment uint64
	// SnapshotError is the most recent background-snapshot failure
	// ("" when none): non-fatal (the log retains everything) but
	// worth surfacing, since the log stops truncating.
	SnapshotError string
}

// Stats returns the driver's current durability counters.
func (d *Driver) Stats() Stats {
	d.mu.Lock()
	appended, seg := d.lsn, d.segIndex
	d.mu.Unlock()
	d.syncMu.Lock()
	synced := d.synced
	d.syncMu.Unlock()
	st := Stats{
		AppendedLSN:      appended,
		SyncedLSN:        synced,
		LastSyncUnixNano: d.lastSyncNS.Load(),
		Segment:          seg,
	}
	if p := d.snapErr.Load(); p != nil {
		st.SnapshotError = *p
	}
	return st
}

// Recovery returns what Open found and certified.
func (d *Driver) Recovery() RecoveryInfo { return d.recovery }

// RecoveredMaxTS implements storage.Recovered: the highest commit
// timestamp present after replay, for seeding the engine's allocator.
func (d *Driver) RecoveredMaxTS() uint64 { return d.recovery.MaxTS }

// Mem returns the in-memory store the log materialises into, for
// tests that assert on raw version chains.
func (d *Driver) Mem() *mem.Store { return d.store }

// Open creates or recovers a write-ahead-logged driver in opts.Dir.
// On a non-empty directory it replays snapshot + segments, certifies
// the replayed commit stream (unless opts.SkipCertify), and returns a
// *CertifyError if the log is not a member of the configured model.
func Open(opts Options) (*Driver, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	d := &Driver{opts: opts, store: mem.New(), prealloc: !opts.NoSync}
	d.syncCond = sync.NewCond(&d.syncMu)
	reg := opts.Metrics
	d.cAppends = reg.Counter("wal_appends_total")
	d.cSyncs = reg.Counter("wal_syncs_total")
	d.cSnapshots = reg.Counter("wal_snapshots_total")
	d.gAppended = reg.Gauge("wal_appended_lsn")
	d.gSynced = reg.Gauge("wal_synced_lsn")
	d.hSyncNS = reg.Histogram("wal_sync_ns")

	dir, err := os.Open(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	d.dir = dir
	if err := d.recover(); err != nil {
		dir.Close()
		return nil, err
	}
	// A fresh segment, numbered past every existing one.
	if err := d.createSegment(d.segIndex + 1); err != nil {
		dir.Close()
		return nil, err
	}
	d.gAppended.Set(int64(d.lsn))
	d.gSynced.Set(int64(d.lsn))
	return d, nil
}

// segChunk is the preallocation step of a segment (16 MiB): a new
// segment is allocated one chunk, and an append that would cross the
// allocation grows it by one more.
const segChunk = 16 << 20

// createSegment makes segment idx the current one: it creates the
// file, writes segMagic, preallocates the first chunk and, unless
// NoSync, syncs the file and the directory, so the segment exists
// durably before any record in it can be acknowledged. On failure it
// removes the file and leaves the current segment as it was. The
// caller holds d.mu, or is Open.
func (d *Driver) createSegment(idx uint64) error {
	path := d.segmentPath(idx)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	alloc, err := d.initSegment(f)
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: new segment: %w", err)
	}
	d.f, d.bw, d.segIndex = f, bufio.NewWriterSize(f, 1<<16), idx
	d.written, d.alloc = int64(len(segMagic)), alloc
	return nil
}

// initSegment writes a new segment's magic, preallocates its first
// chunk and makes both durable; it returns the allocated size.
func (d *Driver) initSegment(f *os.File) (int64, error) {
	if _, err := f.Write([]byte(segMagic)); err != nil {
		return 0, err
	}
	alloc, err := d.allocate(f, int64(len(segMagic)))
	if err != nil || d.opts.NoSync {
		return alloc, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return alloc, d.dir.Sync()
}

// allocate preallocates f up to end bytes rounded up to whole chunks
// and returns the allocated size, or 0 when segments are not
// preallocated (NoSync, or the file system refused once).
func (d *Driver) allocate(f *os.File, end int64) (int64, error) {
	if !d.prealloc {
		return 0, nil
	}
	size := (end + segChunk - 1) / segChunk * segChunk
	ok, err := preallocate(f, size)
	if err != nil {
		return 0, err
	}
	if !ok {
		d.prealloc = false
		return 0, nil
	}
	return size, nil
}

// sealLocked flushes the current segment, cuts it to its written
// length and fully syncs it, so a retired or closed segment has no
// preallocated tail and its size is durable. A failure poisons the
// driver.
func (d *Driver) sealLocked() error {
	err := d.bw.Flush()
	if err == nil {
		if err = d.f.Truncate(d.written); err == nil {
			d.alloc = d.written
		}
	}
	if err == nil && !d.opts.NoSync {
		err = d.f.Sync()
	}
	if err != nil && d.ioErr == nil {
		d.ioErr = fmt.Errorf("wal: seal: %w", err)
	}
	return err
}

func (d *Driver) segmentPath(idx uint64) string {
	return filepath.Join(d.opts.Dir, fmt.Sprintf("wal-%08d.log", idx))
}

func (d *Driver) snapshotPath() string { return filepath.Join(d.opts.Dir, "snapshot") }

// append writes one frame per commit record, then one per install,
// under a single hold of the log mutex and returns the LSN of the
// last. Callers still hold the window's shard locks, so per-object
// record order matches timestamp order; a group's records are
// contiguous, and one later syncTo at the returned LSN makes the whole
// group durable with one sync.
func (d *Driver) append(commits []storage.CommitRecord, installs []storage.Write) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, fmt.Errorf("wal: closed")
	}
	if d.ioErr != nil {
		return 0, d.ioErr
	}
	for i := 0; i < len(commits)+len(installs); i++ {
		if i < len(commits) {
			d.frame = commitFrame(d.frame, d.lsn+1, &commits[i])
		} else {
			w := installs[i-len(commits)]
			d.frame = installFrame(d.frame, d.lsn+1, w.Obj, w.Version)
		}
		if err := d.writeFrameLocked(d.frame); err != nil {
			d.ioErr = fmt.Errorf("wal: append: %w", err)
			return 0, d.ioErr
		}
	}
	d.gAppended.Set(int64(d.lsn))
	if d.opts.SnapshotEvery > 0 && d.recsSinceSnap >= d.opts.SnapshotEvery &&
		d.snapshotting.CompareAndSwap(false, true) {
		d.wg.Add(1)
		go d.snapshot()
	}
	return d.lsn, nil
}

// writeFrameLocked writes the next LSN's frame to the current segment,
// first growing the segment's preallocation by a chunk when the frame
// would cross it, so the write changes no file size.
func (d *Driver) writeFrameLocked(frame []byte) error {
	end := d.written + int64(len(frame))
	if end > d.alloc && d.prealloc {
		alloc, err := d.allocate(d.f, end)
		if err != nil {
			return err
		}
		d.alloc = alloc
	}
	if _, err := d.bw.Write(frame); err != nil {
		return err
	}
	d.written = end
	d.lsn++
	d.cAppends.Inc()
	d.recsSinceSnap++
	return nil
}

// syncTo blocks until every record with LSN ≤ target is durable
// (group commit: whichever waiter arrives first while no sync is in
// flight performs one flush+fdatasync covering everything appended so
// far; the rest just wait). Under NoSync it only advances the
// bookkeeping.
func (d *Driver) syncTo(target uint64) error {
	if d.opts.NoSync {
		d.syncMu.Lock()
		if target > d.synced {
			d.synced = target
			d.gSynced.Set(int64(target))
		}
		d.syncMu.Unlock()
		d.lastSyncNS.Store(time.Now().UnixNano())
		return nil
	}
	d.syncMu.Lock()
	for d.synced < target && d.syncErr == nil && d.syncing {
		d.syncCond.Wait()
	}
	if err := d.syncErr; err != nil {
		d.syncMu.Unlock()
		return err
	}
	if d.synced >= target {
		d.syncMu.Unlock()
		return nil
	}
	d.syncing = true
	d.syncMu.Unlock()

	// One sync round, covering every record appended before the
	// flush. upTo is read before flushing: the flush covers at least
	// those records, possibly more. Inside the preallocated size
	// fdatasync flushes the data alone.
	start := time.Now()
	d.mu.Lock()
	upTo := d.lsn
	err := d.bw.Flush()
	if err != nil && d.ioErr == nil {
		d.ioErr = err
	} else if d.ioErr != nil {
		err = d.ioErr
	}
	f := d.f
	d.mu.Unlock()
	if err == nil {
		err = datasync(f)
	}
	d.cSyncs.Inc()
	d.hSyncNS.Observe(time.Since(start).Nanoseconds())

	d.syncMu.Lock()
	if err != nil {
		d.syncErr = fmt.Errorf("wal: sync: %w", err)
		err = d.syncErr
	} else if upTo > d.synced {
		d.synced = upTo
		d.gSynced.Set(int64(upTo))
		d.lastSyncNS.Store(time.Now().UnixNano())
	}
	d.syncing = false
	d.syncCond.Broadcast()
	d.syncMu.Unlock()
	return err
}

// snapshot runs in the background after a rotation trigger: rotate to
// a fresh segment, capture a commit-atomic cut of the store, write it
// atomically, then delete the covered segments. Failures are recorded
// (Stats.SnapshotError) but non-fatal — the log keeps everything.
func (d *Driver) snapshot() {
	defer d.wg.Done()
	defer d.snapshotting.Store(false)
	if err := d.snapshotOnce(); err != nil {
		msg := err.Error()
		d.snapErr.Store(&msg)
		return
	}
	d.snapErr.Store(nil)
	d.cSnapshots.Inc()
}

func (d *Driver) snapshotOnce() error {
	// 1. Rotate under the append mutex: seal the current segment,
	// retire it, start the next one. After this, every record in
	// retired segments is durable and every new append goes to the new
	// segment.
	d.mu.Lock()
	if d.closed || d.ioErr != nil {
		err := d.ioErr
		d.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("wal: closed")
		}
		return err
	}
	rotatedLSN := d.lsn
	oldSegs, err := d.rotateLocked()
	d.mu.Unlock()
	if err != nil {
		return err
	}

	// Everything rotated out is durable.
	d.syncMu.Lock()
	if rotatedLSN > d.synced {
		d.synced = rotatedLSN
		d.gSynced.Set(int64(rotatedLSN))
		d.lastSyncNS.Store(time.Now().UnixNano())
	}
	d.syncMu.Unlock()

	// 2. Commit-atomic cut of the store. Commits racing the cut may
	// land in both the snapshot and the new segment; per-object
	// conditional replay skips the duplicates on recovery.
	latest, maxTS := d.store.SnapshotLatest()

	// 3. Atomic snapshot write: temp, fsync, rename, dir fsync.
	doc := encodeSnapshot(latest, maxTS, rotatedLSN)
	tmp := d.snapshotPath() + ".tmp"
	if err := writeFileSync(tmp, doc, !d.opts.NoSync); err != nil {
		return err
	}
	if err := os.Rename(tmp, d.snapshotPath()); err != nil {
		return err
	}
	if !d.opts.NoSync {
		if err := d.dir.Sync(); err != nil {
			return err
		}
	}

	// 4. The snapshot covers every rotated-out segment; delete them.
	for _, p := range oldSegs {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	if !d.opts.NoSync {
		return d.dir.Sync()
	}
	return nil
}

// rotateLocked seals the current segment and makes a fresh one
// current, returning the paths of every segment before it. The sealed
// segment is durable and has its final size before its successor
// exists, so only the final segment can ever hold a zero tail. If the
// new segment cannot be created, appends continue in the sealed one
// (the next append grows it again).
func (d *Driver) rotateLocked() ([]string, error) {
	if err := d.sealLocked(); err != nil {
		return nil, err
	}
	old := d.f
	if err := d.createSegment(d.segIndex + 1); err != nil {
		return nil, err
	}
	d.retired = append(d.retired, old)
	d.recsSinceSnap = 0
	var oldSegs []string
	for i := uint64(1); i < d.segIndex; i++ {
		if p := d.segmentPath(i); fileExists(p) {
			oldSegs = append(oldSegs, p)
		}
	}
	return oldSegs, nil
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

func writeFileSync(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Close seals the log — flushed, cut to its written length, fully
// synced — then closes every file. The driver must not be used
// afterwards.
func (d *Driver) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	last := d.lsn
	d.mu.Unlock()
	err := d.syncTo(last)
	d.wg.Wait() // let an in-flight snapshot finish
	d.mu.Lock()
	d.closed = true
	if serr := d.sealLocked(); err == nil {
		err = serr
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	for _, f := range d.retired {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	d.retired = nil
	d.mu.Unlock()
	if cerr := d.dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- storage.Driver ---

// Install appends a version durably: the record is logged inside the
// object's shard lock (ordering) and fdatasync'd into the preallocated
// segment before Install returns.
func (d *Driver) Install(x model.Obj, v storage.Version) error {
	w := d.LockObjs([]model.Obj{x}).(*window)
	err := w.Install(x, v)
	w.Unlock()
	if err != nil {
		return err
	}
	_, serr := w.Durable()
	return serr
}

// InstallBatch installs and logs every write under one multi-shard
// window, then fsyncs once.
func (d *Driver) InstallBatch(ws []storage.Write) error {
	if len(ws) == 0 {
		return nil
	}
	objs := make([]model.Obj, len(ws))
	for i, wr := range ws {
		objs[i] = wr.Obj
	}
	w := d.LockObjs(objs).(*window)
	var err error
	for _, wr := range ws {
		if err = w.Install(wr.Obj, wr.Version); err != nil {
			break
		}
	}
	w.Unlock()
	if err != nil {
		return err
	}
	_, serr := w.Durable()
	return serr
}

func (d *Driver) ReadAt(x model.Obj, ts uint64) (storage.Version, bool) {
	return d.store.ReadAt(x, ts)
}

func (d *Driver) ReadAtBatch(objs []model.Obj, ts uint64) ([]storage.Version, []bool) {
	return d.store.ReadAtBatch(objs, ts)
}

func (d *Driver) Latest(x model.Obj) (storage.Version, bool) { return d.store.Latest(x) }
func (d *Driver) LatestTS(x model.Obj) uint64                { return d.store.LatestTS(x) }
func (d *Driver) LatestTSBatch(objs []model.Obj) []uint64    { return d.store.LatestTSBatch(objs) }

// Compact forwards to the in-memory store. The log is unaffected:
// truncation happens via snapshots, so recovery may resurrect
// compacted versions (harmless — compaction is a cache eviction here,
// not a semantic boundary).
func (d *Driver) Compact(watermark uint64) int { return d.store.GC(watermark) }

func (d *Driver) Objects() []model.Obj         { return d.store.Objects() }
func (d *Driver) VersionCount(x model.Obj) int { return d.store.VersionCount(x) }

// LockObjs opens a durable commit window over the write set.
func (d *Driver) LockObjs(objs []model.Obj) storage.Locked {
	return &window{d: d, inner: d.store.LockObjs(objs)}
}

// LockBatch opens a durable group-commit window over the union write
// set of a batch of disjoint commits: the records staged via
// LogCommitBatch are appended contiguously inside Unlock — while the
// union's shard locks are still held, so per-object log order matches
// timestamp order — and one fsync covers the whole group.
func (d *Driver) LockBatch(objs []model.Obj) storage.BatchLocked {
	return &window{d: d, inner: d.store.LockObjs(objs)}
}

// window is the durable commit window: mem's multi-shard lock plus
// the staged log record. It implements storage.Locked,
// storage.CommitLogger, storage.DurableWindow and
// storage.TraceAttacher.
type window struct {
	d     *Driver
	inner *mem.Locked
	// commits holds the staged commit records (LogCommit,
	// LogCommitBatch); installs collects raw installs for windows
	// driven without them.
	commits  []storage.CommitRecord
	installs []storage.Write
	trace    *txtrace.Trace
	lsn      uint64
	err      error
	unlocked bool
}

// AttachTrace hands the window the transaction's trace; Unlock then
// marks the wal_append and fsync_wait stages on it, attributing the
// group fsync via the append/sync LSN gap.
func (w *window) AttachTrace(tr *txtrace.Trace) { w.trace = tr }

func (w *window) LatestTS(x model.Obj) uint64 { return w.inner.LatestTS(x) }

func (w *window) ReadAt(x model.Obj, ts uint64) (storage.Version, bool) {
	return w.inner.ReadAt(x, ts)
}

func (w *window) Install(x model.Obj, v storage.Version) error {
	if err := w.inner.Install(x, v); err != nil {
		return err
	}
	w.installs = append(w.installs, storage.Write{Obj: x, Version: v})
	return nil
}

// LogCommit stages the commit record; it subsumes the window's raw
// installs (the record's final writes are exactly what was installed).
func (w *window) LogCommit(rec storage.CommitRecord) {
	w.commits = []storage.CommitRecord{rec}
}

// LogCommitBatch stages a group commit's records (ascending timestamp
// order); Unlock appends them as one contiguous frame group under a
// single log-mutex hold, and the group's durability is one fsync.
func (w *window) LogCommitBatch(recs []storage.CommitRecord) {
	w.commits = recs
}

// Unlock appends the staged record (or the raw installs) while the
// shard locks are still held, releases the shards, then joins the
// group fsync. When the window wrote nothing there is nothing to log
// and Unlock is just the release.
func (w *window) Unlock() {
	if w.unlocked {
		return
	}
	w.unlocked = true
	var last uint64
	var appendErr error
	switch {
	case len(w.commits) > 0: // the commit records subsume the installs
		last, appendErr = w.d.append(w.commits, nil)
	case len(w.installs) > 0:
		last, appendErr = w.d.append(nil, w.installs)
	}
	if w.trace != nil && last > 0 {
		attrs := map[string]int64{"lsn": int64(last)}
		if len(w.commits) > 1 {
			attrs["group_records"] = int64(len(w.commits))
		}
		w.trace.MarkAttrs(txtrace.StageWALAppend, attrs)
	}
	w.inner.Unlock()
	if appendErr != nil {
		w.err = appendErr
		return
	}
	if last > 0 {
		w.lsn = last
		// The append/sync LSN gap at entry is the group-commit
		// attribution: how many already-appended records the fsync this
		// window joins (or starts) will cover along with ours.
		var syncedBefore uint64
		if w.trace != nil {
			syncedBefore = w.d.syncedLSN()
		}
		w.err = w.d.syncTo(last)
		if w.trace != nil {
			w.trace.MarkAttrs(txtrace.StageFsyncWait, map[string]int64{
				"lsn":             int64(last),
				"synced_at_enter": int64(syncedBefore),
				"group_gap":       int64(last) - int64(syncedBefore),
			})
		}
	}
}

// syncedLSN reads the durable watermark.
func (d *Driver) syncedLSN() uint64 {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	return d.synced
}

// Durable reports the window's record's LSN, fdatasync'd into the
// preallocated segment, valid after Unlock. A sync error means the
// installs are visible in memory but not durable.
func (w *window) Durable() (uint64, error) { return w.lsn, w.err }
