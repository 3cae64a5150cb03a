// Package wal implements the durability subsystem: a write-ahead log of
// applied update batches plus periodic engine snapshots, with recovery =
// newest valid snapshot + replay of the log tail.
//
// # Model
//
// The engine applies updates in batches, and the same batch stream
// reproduces byte-identical state (the replay-parity property the trace
// tests pin down). Durability therefore reduces to logging the *applied*
// batch stream: after every committed round the engine hands the WAL one
// Batch — the shard it ran on, the shard's post-round local epoch, and the
// round's insert/delete sub-batches (as submitted with one shard, routed
// to the shard in submission order with more). The WAL encodes it once
// into its CRC-framed record (a Record), appends those bytes to a
// segmented log, and only then publishes the same bytes to the replication
// tail (see stream.go). In sharded mode each shard's records are appended
// in its local commit order (the hook runs under the engine's apply lock,
// in the goroutine running that shard's round), so the log is a
// linearization of the per-shard commit streams — exactly the
// commit-vector order the multi-version vector log assigns to global
// epochs.
//
// Recovery loads the newest snapshot whose checksum validates, restores
// every shard from it, then replays the log tail: records at or below the
// snapshot's per-shard epoch vector are skipped, the rest are re-applied
// through the normal engine batch path. A torn or corrupt record — the
// footprint of a crash mid-append — truncates the log at that record's
// start instead of failing recovery; everything before it is recovered.
//
// # Fault tolerance and degraded mode
//
// All file I/O goes through an injectable filesystem (Options.FS, see
// package faultfs), so every error path below is deterministically
// testable. Transient append and fsync errors are retried in place with
// bounded backoff (Options.AppendRetries/RetryBackoff); a partially
// written record is rolled back by truncating the segment to the previous
// record boundary before each retry, so a retry never buries later
// records behind a torn frame.
//
// When the retries are exhausted the manager does not wedge the engine:
// it enters *degraded mode*. Reads and batch applies continue normally,
// but batches are no longer logged (counted in Stats.DroppedBatches), and
// Stats.Degraded/Err report the failure. A background loop (every
// Options.ReattachEvery) — or an explicit Reattach call — attempts to
// restore durability: it quiesces the engine, writes a full snapshot of
// the current in-memory state (which contains every batch dropped while
// degraded), opens a fresh log segment and purges the old ones, then
// clears the flag. All of that happens inside the quiesce, so once a
// re-attach succeeds there is no window in which a batch is neither in
// the snapshot nor in the log: post-re-attach durability is exactly as
// strong as a freshly opened WAL. Batches dropped while degraded are lost
// only if the process dies before a re-attach succeeds.
//
// # Formats
//
// Log segments (wal-<seq>.seg) start with a 16-byte header (magic,
// version, vertex count, shard count) followed by records framed as
// [len u32][crc32 u32][payload]; the CRC covers the payload. Snapshots
// (snap-<epoch>.ksnp) carry the same identification header, one durable
// state block per shard (local CSR, levels, epoch, counters) and a
// trailing whole-file CRC32; they are written to a temp file, fsynced and
// renamed, so a crash mid-snapshot leaves the previous snapshot intact.
// All integers are little-endian, matching the trace format.
package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
)

// SyncPolicy controls when appended records are flushed to stable storage.
type SyncPolicy int

const (
	// SyncNone never fsyncs on the append path: writes go to the OS page
	// cache and survive process crashes but not machine crashes. Fastest.
	SyncNone SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery, bounding the
	// machine-crash loss window while amortizing the fsync cost.
	SyncInterval
	// SyncAlways fsyncs after every record: a committed batch is durable
	// before the update call returns. Slowest, strongest.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return "none"
	}
}

// ParseSyncPolicy parses the textual policy names used by flags.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none", "":
		return SyncNone, nil
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncNone, fmt.Errorf("wal: unknown fsync policy %q (want none, interval or always)", s)
}

// Options configure a Manager.
type Options struct {
	Sync          SyncPolicy
	SyncEvery     time.Duration // SyncInterval period (default 100ms)
	SegmentBytes  int64         // segment rotation threshold (default 64 MiB)
	SnapshotEvery uint64        // auto-snapshot after this many logged batches (0 = manual only)

	// FS is the filesystem all log and snapshot I/O goes through. nil =
	// the real OS filesystem; tests inject a faultfs.Injector.
	FS faultfs.FS
	// AppendRetries is how many times a failed append write or fsync is
	// retried before the manager degrades (0 = default of 2, negative =
	// no retries).
	AppendRetries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt and capped at 100ms. 0 = retry immediately (deterministic,
	// the right choice for injected faults and tests).
	RetryBackoff time.Duration
	// ReattachEvery is the period of the background re-attach loop that
	// runs while degraded (0 = default of 5s, negative = no background
	// loop; Reattach can still be called explicitly).
	ReattachEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = faultfs.OS()
	}
	switch {
	case o.AppendRetries == 0:
		o.AppendRetries = 2
	case o.AppendRetries < 0:
		o.AppendRetries = 0
	}
	if o.ReattachEvery == 0 {
		o.ReattachEvery = 5 * time.Second
	}
	return o
}

// Batch is one committed engine round: the unit the log records and
// recovery replays. Epoch is the shard's *local* committed epoch after the
// round applied; a round is logged only if it moved that epoch, and each
// of its sub-batches moved it by one if it changed the graph, so replaying
// a record lands its shard on exactly Epoch. HasIns/HasDel are carried by
// the record format but read by no engine: the edge lists say it all.
type Batch struct {
	Shard          int
	Epoch          uint64
	Ins, Del       []graph.Edge
	HasIns, HasDel bool
}

// ShardState is one shard's durable state: everything needed to restore
// the shard exactly (graph + levels determine the level structure; the
// counters are observability state that cannot be derived from one shard
// alone).
type ShardState struct {
	Graph             *graph.CSR
	Levels            []int32
	Epoch             uint64
	Inserted, Deleted int64
}

// Engine is the surface the WAL drives, implemented by shard.Engine at
// every shard count; wal deliberately imports only the graph package, so
// the engine can import wal for the Batch and ShardState types without a
// cycle.
//
// SetBatchLog, Quiesce, ApplyLogged, ShardDurable and RestoreShard are
// quiescent-coordination methods: SetBatchLog and RestoreShard are called
// before the engine serves traffic (or under Quiesce), ApplyLogged only
// during single-threaded recovery, and ShardDurable only from inside a
// Quiesce section.
type Engine interface {
	NumVertices() int
	NumShards() int
	// SetBatchLog installs fn, invoked synchronously under the engine's
	// update lock after every committed round (concurrently for distinct
	// shards); the Batch's edge slices are only valid for the duration of
	// the call. nil uninstalls.
	SetBatchLog(fn func(Batch))
	// Quiesce runs f while every updater is excluded: no batch is in
	// flight and none can start until f returns.
	Quiesce(f func())
	// ApplyLogged re-applies one logged batch through the normal batch
	// path, with the same accounting as the live path.
	ApplyLogged(b Batch)
	// ShardDurable captures shard si's durable state (copies, safe to use
	// after the quiesce section ends).
	ShardDurable(si int) ShardState
	// ShardEpoch returns shard si's committed local epoch — the cheap
	// (no-copy) slice of ShardDurable the resume ring needs to seed its
	// retention vector. Called from inside a Quiesce section.
	ShardEpoch(si int) uint64
	// RestoreShard restores shard si of a fresh engine from st.
	RestoreShard(si int, st ShardState) error
}

// Stats is a point-in-time durability snapshot, served by /stats.
type Stats struct {
	Dir                  string `json:"dir"`
	Sync                 string `json:"sync"`
	Segments             int    `json:"segments"`
	LogBytes             int64  `json:"log_bytes"`
	LoggedBatches        uint64 `json:"logged_batches"`      // appended since open
	RecoveredBatches     uint64 `json:"recovered_batches"`   // replayed from the log tail at open
	Snapshots            uint64 `json:"snapshots"`           // taken since open
	LastSnapshotEpoch    uint64 `json:"last_snapshot_epoch"` // global (summed) epoch; 0 = none yet
	LastSnapshotUnixNano int64  `json:"last_snapshot_unix_nano"`
	LastSyncUnixNano     int64  `json:"last_fsync_unix_nano"`

	// Degraded is true while durability is lost: appends failed past
	// their retry budget and batches are being applied in memory only.
	Degraded              bool   `json:"degraded"`
	DegradedSinceUnixNano int64  `json:"degraded_since_unix_nano,omitempty"`
	DroppedBatches        uint64 `json:"dropped_batches,omitempty"` // applied but not logged (degraded mode)
	Reattaches            uint64 `json:"reattaches,omitempty"`      // successful degraded → durable transitions
	AppendRetries         uint64 `json:"append_retries,omitempty"`  // write/fsync attempts that needed a retry
	Err                   string `json:"error,omitempty"`           // last durability error; cleared by re-attach
}

// Manager ties a log directory to an engine: it recovers the engine from
// the directory at Open, logs every committed batch from then on, and
// writes snapshots (manually via Snapshot, or automatically every
// Options.SnapshotEvery logged batches).
type Manager struct {
	dir string
	eng Engine
	opt Options
	fs  faultfs.FS
	log *segLog

	// tail encodes every committed batch once and fans the record out to
	// replication subscribers (see stream.go). onBatch publishes after the
	// log append — after its fsync under SyncAlways — and also while
	// degraded: replication tracks the applied stream, not the durable one.
	tail *TailSource

	recovered uint64 // batches replayed at Open

	// Degraded-mode state. degraded is flipped true by an exhausted
	// append (inside a shard's apply section) and flipped false only
	// inside a full-engine quiesce, so onBatch observes a consistent
	// value for the whole of any one batch.
	degraded      atomic.Bool
	degradedSince atomic.Int64
	dropped       atomic.Uint64
	reattaches    atomic.Uint64
	lastErr       atomic.Pointer[error]

	snapMu       sync.Mutex // one snapshot or re-attach at a time
	snapInFlight atomic.Bool
	sinceSnap    atomic.Uint64
	snapshots    atomic.Uint64
	lastSnapEp   atomic.Uint64
	lastSnapTime atomic.Int64

	closed    atomic.Bool
	stopCh    chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup // auto-snapshot + re-attach goroutines
}

// Open recovers eng from dir (creating it if needed) and attaches the
// write-ahead log: newest valid snapshot first, then the log tail through
// the engine's normal batch path, truncating a torn tail record. It must
// be called on a freshly constructed, not-yet-serving engine, before any
// retention configuration (the multi-version logs initialize from the
// restored epochs).
func Open(dir string, eng Engine, opt Options) (*Manager, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	m := &Manager{dir: dir, eng: eng, opt: opt, fs: opt.FS, tail: newTailSource(eng), stopCh: make(chan struct{})}

	// 1) Restore the newest snapshot whose checksum validates.
	vec := make([]uint64, eng.NumShards())
	snapEpoch, err := restoreNewestSnapshot(m.fs, dir, eng, vec)
	if err != nil {
		return nil, err
	}
	m.lastSnapEp.Store(snapEpoch)

	// 2) Replay the log tail. Records already covered by the snapshot
	// (at or below its per-shard epoch vector) are skipped; the epoch
	// filter also makes replay idempotent across overlapping segments. A
	// replayed record must land its shard on the record's epoch: every
	// record changed its shard's graph, so anything else means the log and
	// the state under it disagree, and later records would be misfiled.
	lg, replayed, err := scanAndOpen(dir, eng.NumVertices(), eng.NumShards(), opt, func(b Batch) error {
		if b.Epoch <= vec[b.Shard] {
			return nil
		}
		eng.ApplyLogged(b)
		if got := eng.ShardEpoch(b.Shard); got != b.Epoch {
			return fmt.Errorf("shard %d at epoch %d after replaying its record for epoch %d", b.Shard, got, b.Epoch)
		}
		vec[b.Shard] = b.Epoch
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.log = lg
	m.recovered = replayed
	m.sinceSnap.Store(replayed)

	// 3) Log every batch from here on.
	eng.SetBatchLog(m.onBatch)
	return m, nil
}

// onBatch encodes one committed batch, appends the record to the log, and
// then publishes the same bytes to the tail. It runs under the engine's
// update lock, in the goroutine that ran the round, so per-shard records
// land in commit order on disk and on the stream. While degraded it drops
// the record from the log (the batch is still applied in memory, and still
// shipped) instead of hammering a broken disk from the hot path.
func (m *Manager) onBatch(b Batch) {
	rec := m.tail.encode(b)
	// Publish once the append has returned, whatever its outcome.
	defer m.tail.hub.publish(rec)
	if m.degraded.Load() {
		m.dropped.Add(1)
		return
	}
	if err := m.log.append(rec.Frame); err != nil {
		// Retries are exhausted: this batch is applied but not logged.
		m.dropped.Add(1)
		m.enterDegraded(err)
		return
	}
	if m.opt.SnapshotEvery > 0 && m.sinceSnap.Add(1) >= m.opt.SnapshotEvery {
		// Trigger asynchronously: this hook runs under the engine's apply
		// lock, and Snapshot quiesces the engine — inline it would
		// deadlock against ourselves.
		if m.snapInFlight.CompareAndSwap(false, true) {
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				defer m.snapInFlight.Store(false)
				_ = m.Snapshot()
			}()
		}
	}
}

// Tail returns the manager's replication source: the records this manager
// logs, each published right after its append. Manager.Close closes it.
func (m *Manager) Tail() *TailSource { return m.tail }

// enterDegraded records the durability failure and, on the first
// transition, starts the background re-attach loop.
func (m *Manager) enterDegraded(err error) {
	e := err
	m.lastErr.Store(&e)
	if m.degraded.CompareAndSwap(false, true) {
		m.degradedSince.Store(time.Now().UnixNano())
		if m.opt.ReattachEvery > 0 && !m.closed.Load() {
			m.wg.Add(1)
			go m.reattachLoop()
		}
	}
}

// reattachLoop periodically retries Reattach until it succeeds or the
// manager closes.
func (m *Manager) reattachLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.opt.ReattachEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			if m.Reattach() == nil {
				return
			}
		}
	}
}

// Reattach attempts to restore durability after the manager has degraded:
// it quiesces the engine, snapshots the full in-memory state (including
// every batch dropped while degraded), switches logging to a fresh
// segment, purges the abandoned ones and clears the degraded flag — all
// inside the quiesce, so a batch committed after Reattach returns nil is
// durable under the configured policy with no gap. Returns nil immediately
// if the manager is not degraded; a failed attempt leaves it degraded and
// is safe to retry.
func (m *Manager) Reattach() error {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	if m.closed.Load() {
		return fmt.Errorf("wal: reattach after close")
	}
	if !m.degraded.Load() {
		return nil
	}
	return m.reattachLocked()
}

// reattachLocked does the quiesced re-attach. Caller holds snapMu.
//
// Ordering inside the quiesce is load-bearing. The snapshot must be
// durable before logging resumes: batches dropped while degraded exist
// only in memory, so a fresh segment without the snapshot would recover
// to a state missing them. And the old segments must be purged before
// appends resume: recovery drops every segment after a torn record, so a
// fresh segment living behind an old segment with a torn tail would be
// discarded wholesale at the next open.
func (m *Manager) reattachLocked() error {
	p := m.eng.NumShards()
	states := make([]ShardState, p)
	var err error
	m.eng.Quiesce(func() {
		for si := range states {
			states[si] = m.eng.ShardDurable(si)
		}
		if werr := writeSnapshot(m.fs, m.dir, m.eng.NumVertices(), p, states); werr != nil {
			err = fmt.Errorf("wal: re-attach snapshot: %w", werr)
			return
		}
		fresh, rerr := m.log.reset()
		if rerr != nil {
			err = fmt.Errorf("wal: re-attach log: %w", rerr)
			return
		}
		m.log.purgeBefore(fresh)
		m.sinceSnap.Store(0)
		m.degraded.Store(false)
		m.lastErr.Store(nil)
		m.degradedSince.Store(0)
		m.reattaches.Add(1)
	})
	if err != nil {
		e := err
		m.lastErr.Store(&e)
		return err
	}
	var global uint64
	for _, st := range states {
		global += st.Epoch
	}
	m.snapshots.Add(1)
	m.lastSnapEp.Store(global)
	m.lastSnapTime.Store(time.Now().UnixNano())
	pruneSnapshots(m.fs, m.dir, global)
	return nil
}

// Snapshot quiesces the engine, captures every shard's durable state,
// rotates the log, writes the snapshot (temp file + fsync + rename) and
// purges the log segments the snapshot covers. Safe to call concurrently
// with updates and Close; one snapshot runs at a time. While degraded it
// performs a re-attach instead (the normal rotate path would just fail
// against the wedged segment).
func (m *Manager) Snapshot() error {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	if m.closed.Load() {
		return fmt.Errorf("wal: snapshot after close")
	}
	if m.degraded.Load() {
		return m.reattachLocked()
	}
	p := m.eng.NumShards()
	states := make([]ShardState, p)
	var purgeBelow uint64
	var rotateErr error
	m.eng.Quiesce(func() {
		for si := range states {
			states[si] = m.eng.ShardDurable(si)
		}
		m.sinceSnap.Store(0)
		// Rotate inside the quiesce so every record in the old segments is
		// covered by the captured state.
		purgeBelow, rotateErr = m.log.rotate()
	})
	if rotateErr != nil {
		return fmt.Errorf("wal: rotating log for snapshot: %w", rotateErr)
	}
	var global uint64
	for _, st := range states {
		global += st.Epoch
	}
	if err := writeSnapshot(m.fs, m.dir, m.eng.NumVertices(), p, states); err != nil {
		return err
	}
	m.log.purgeBefore(purgeBelow)
	m.snapshots.Add(1)
	m.lastSnapEp.Store(global)
	m.lastSnapTime.Store(time.Now().UnixNano())
	pruneSnapshots(m.fs, m.dir, global)
	return nil
}

// Err returns the last durability error: the failure that degraded the
// manager (or the latest failed re-attach). A successful re-attach clears
// it. Non-nil means batches may be missing from the log.
func (m *Manager) Err() error {
	if p := m.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Degraded reports whether the manager is currently in degraded mode:
// applying batches in memory without logging them.
func (m *Manager) Degraded() bool { return m.degraded.Load() }

// RecoveredBatches returns how many log-tail batches Open replayed.
func (m *Manager) RecoveredBatches() uint64 { return m.recovered }

// Stats returns a point-in-time durability snapshot.
func (m *Manager) Stats() Stats {
	segs, bytes, appended, retries := m.log.stats()
	st := Stats{
		Dir:                   m.dir,
		Sync:                  m.opt.Sync.String(),
		Segments:              segs,
		LogBytes:              bytes,
		LoggedBatches:         appended,
		RecoveredBatches:      m.recovered,
		Snapshots:             m.snapshots.Load(),
		LastSnapshotEpoch:     m.lastSnapEp.Load(),
		LastSnapshotUnixNano:  m.lastSnapTime.Load(),
		LastSyncUnixNano:      m.log.lastSync.Load(),
		Degraded:              m.degraded.Load(),
		DegradedSinceUnixNano: m.degradedSince.Load(),
		DroppedBatches:        m.dropped.Load(),
		Reattaches:            m.reattaches.Load(),
		AppendRetries:         retries,
	}
	if err := m.Err(); err != nil {
		st.Err = err.Error()
	}
	return st
}

// Close detaches the batch hook (under a quiesce, so no append races the
// detach) and closes the tail, stops the re-attach loop, waits for any in-flight background
// work, then flushes and closes the log. Idempotent and safe to call
// concurrently with Snapshot and in-flight batch commits: every caller
// gets the same result, and a snapshot that lost the race gets a clean
// "after close" error instead of a torn log. The engine stays usable in
// memory-only mode afterwards.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		close(m.stopCh)
		m.tail.Close()
		// The closed flag is set only after the in-flight background work
		// drains: an auto-snapshot already spawned by the last batches must
		// be allowed to land, not aborted with "snapshot after close".
		m.wg.Wait()
		m.closed.Store(true)
		m.snapMu.Lock()
		logErr := m.log.close()
		m.snapMu.Unlock()
		m.closeErr = errors.Join(logErr, m.Err())
	})
	return m.closeErr
}
