// Package cplds implements the Concurrent Parallel Level Data Structure
// (CPLDS) of Liu, Shun and Zablotchi (PPoPP 2024): a dynamic k-core
// structure in which asynchronous, lock-free coreness reads run
// concurrently with parallel batches of edge updates and stay
// linearizable.
//
// # Protocol: one commit point per batch
//
// The paper links the vertices a batch moves into dependency DAGs so that
// each causally related group can be unmarked, and become visible, on its
// own. This package makes a whole batch visible at once instead, which is
// stronger and needs no DAG. Two pieces of state carry it:
//
//   - seq, one word: bit 0 is set while a batch is in flight, bits 1–47
//     hold the committed epoch, and bits 48–63 count restores (Restore).
//     It only grows, so no value repeats (short of 2^16 restores during
//     one read).
//   - per vertex, a stamp and an old level: the seq value of the batch
//     that last moved the vertex (odd, so never a quiescent seq), and the
//     vertex's level before that batch.
//
// BatchStart bumps seq odd. The batch engine calls VertexMoving before a
// vertex's first level change in the batch, which stores old and then the
// stamp. BatchEnd retains the batch's delta and then bumps seq even
// through the commit hook: that store is the batch's one commit point.
//
// ReadLevel loads seq, the live level, the stamp, old and seq again, in
// that order, and retries if the two seq loads differ. If seq is odd and
// the stamp names the batch in flight, it returns old; otherwise it
// returns the live level.
//
// Proof sketch.
//
//   - Linearization point. A read that passes the check saw one seq value
//     s for its whole duration, so no batch started or committed in
//     between. It returns v's level at the epoch s names and is
//     linearized at its second seq load. If s is even no batch was
//     running, so the live level is settled. If s is odd, batch s is in
//     flight: a vertex changes level only after its stamp is s, and the
//     stamp is loaded after the level, so a stamp other than s means the
//     level loaded was still the pre-batch one, and a stamp equal to s
//     means old holds it.
//   - Why old is stored before the stamp. A reader that sees stamp s must
//     find this batch's old; stored the other way round, it could load the
//     stamp and then the previous batch's old. Old cannot be overwritten
//     afterwards without a later batch, which changes seq and fails the
//     check.
//   - Whole-batch atomicity. Every passing read during batch s returns
//     pre-batch levels and every read after its commit returns post-batch
//     levels, so no reader sees one mover of a batch new and another old.
//   - Lock-freedom. A read retries only when seq changed between its two
//     loads, that is when a batch started or committed: each retry is
//     progress of an update.
//
// The same argument covers committed cuts (CutBegin/CutEnd): a collection
// whose first and last seq name the same epoch and restore count consists
// of reads that each returned that epoch's level, even if a batch started
// in between. Restore is a batch that moves every vertex; because seq
// never repeats, a cut cannot validate across it even when the restored
// epoch equals the current one.
package cplds

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/mvcc"
	"kcore/internal/parallel"
	"kcore/internal/plds"
)

// restoreShift is the bit where seq's restore count starts; the epoch sits
// below it, above the in-flight bit.
const restoreShift = 48

// epochOf returns the committed epoch a seq value names.
func epochOf(seq uint64) uint64 { return seq & (1<<restoreShift - 1) >> 1 }

// mark is a vertex's read-side record of its last move.
type mark struct {
	stamp atomic.Uint64 // seq of the batch that last moved the vertex
	old   atomic.Int32  // the vertex's level before that batch
}

// CPLDS wraps the PLDS batch engine with the per-vertex stamps and the
// concurrent read protocol.
//
// Concurrency contract: InsertBatch/DeleteBatch from one updater goroutine
// at a time (internally parallel); Read, ReadNonSync and ReadSync from any
// number of goroutines at any time.
type CPLDS struct {
	P *plds.PLDS
	S *lds.Structure

	seq   atomic.Uint64 // the commit word; see the package comment
	marks []mark

	// inFlight is seq while a batch runs: the stamp VertexMoving stores.
	// Written by the updater in BatchStart, before the engine's workers
	// start.
	inFlight uint64

	// marked is the lock-free arena of this batch's movers: VertexMoving
	// claims a slot with an atomic cursor bump (a vertex moves first at
	// most once per batch, so n slots always suffice).
	marked    []uint32
	markedLen atomic.Int64

	// gate implements the SyncReads baseline: the updater write-locks it
	// for the duration of each batch, so ReadSync blocks until the batch
	// completes (exactly the paper's synchronous baseline). The gated
	// attempt of a committed-cut read (CutBegin) read-locks it too.
	gate sync.RWMutex

	// delta is this batch's commit delta, reused across batches: BatchEnd
	// fills it with one pass over the marked arena (pre-batch levels from
	// the marks, post-batch levels live), keeping only movers whose level
	// changed, sorted by vertex. It is filled only when store is set or
	// commitActive reports a consumer.
	delta mvcc.Delta

	// store, when non-nil, is the multi-version store: BatchEnd puts each
	// batch's delta into it before publishing the commit, and the *At read
	// protocols overlay the retained deltas to serve retired epochs exactly.
	store *mvcc.Store

	// onCommit, when non-nil, is the commit hook: it receives this batch's
	// delta and a closure that commits the batch (bumps seq even), and must
	// call that closure exactly once. It runs while the gate still excludes
	// the next batch. The sharded engine uses it to serialize publication
	// with its cross-shard vector log and to derive change-feed events from
	// the delta. commitActive is evaluated once per commit; when it reports
	// false and retention is off, the delta's Moves are left empty.
	onCommit     func(d *mvcc.Delta, publish func())
	commitActive func() bool
	publish      func() // c.publishCommit, bound once so commits allocate nothing

	// beforeCommit, when non-nil, runs at the start of BatchEnd with the
	// batch's movers, before the commit. Test hook.
	beforeCommit func(marked []uint32)

	// readRetries counts how many times the read protocol had to restart
	// (a batch started or committed during the read).
	readRetries atomic.Uint64
}

// ReadRetries returns the cumulative number of read-protocol restarts.
func (c *CPLDS) ReadRetries() uint64 { return c.readRetries.Load() }

// New returns an empty CPLDS over n vertices with the given parameters.
func New(n int, p lds.Params) *CPLDS {
	c := &CPLDS{
		marks:  make([]mark, n),
		marked: make([]uint32, n),
	}
	c.P = plds.New(n, p, c)
	c.S = c.P.S
	c.publish = c.publishCommit
	return c
}

// NumVertices returns the number of vertices.
func (c *CPLDS) NumVertices() int { return len(c.marks) }

// Graph exposes the underlying dynamic graph (must not be accessed
// concurrently with a running batch).
func (c *CPLDS) Graph() *graph.Dynamic { return c.P.Graph() }

// InsertBatch inserts a batch of edges; concurrent reads remain
// linearizable throughout. Returns the number of edges applied.
func (c *CPLDS) InsertBatch(edges []graph.Edge) int { return c.P.InsertBatch(edges) }

// DeleteBatch deletes a batch of edges; concurrent reads remain
// linearizable throughout. Returns the number of edges removed.
func (c *CPLDS) DeleteBatch(edges []graph.Edge) int { return c.P.DeleteBatch(edges) }

// --- plds.Tracker implementation (update-side protocol) ---

// BatchStart begins a batch: takes the sync gate and bumps seq odd.
func (c *CPLDS) BatchStart(plds.Kind, []graph.Edge) {
	c.gate.Lock()
	c.inFlight = c.seq.Add(1)
	c.markedLen.Store(0)
}

// VertexMoving records v's pre-batch level and stamps v with the batch in
// flight, in that order (see the package comment). Called concurrently by
// the batch engine, once per vertex per batch, before v's first level
// change.
func (c *CPLDS) VertexMoving(v uint32, oldLevel int32, _ plds.Kind) {
	m := &c.marks[v]
	m.old.Store(oldLevel)
	m.stamp.Store(c.inFlight)
	c.marked[c.markedLen.Add(1)-1] = v
}

// BatchEnd captures the batch's commit delta, retains it, commits the
// batch through the commit hook and releases the sync gate.
func (c *CPLDS) BatchEnd(plds.Kind) {
	marked := c.marked[:c.markedLen.Load()]
	if c.beforeCommit != nil {
		c.beforeCommit(marked)
	}
	d := &c.delta
	d.Epoch = epochOf(c.inFlight) + 1
	d.Moves = d.Moves[:0]
	if c.store != nil || (c.onCommit != nil && c.commitActive()) {
		for _, v := range marked {
			if old, now := c.marks[v].old.Load(), c.P.Level(v); old != now {
				d.Moves = append(d.Moves, mvcc.Move{V: v, Old: old, New: now})
			}
		}
		slices.SortFunc(d.Moves, func(a, b mvcc.Move) int { return cmp.Compare(a.V, b.V) })
	}
	// Retention: retain the delta *before* the commit, so any reader that
	// observes the new epoch finds its delta present.
	if c.store != nil {
		c.store.Put(d)
	}
	if c.onCommit != nil {
		c.onCommit(d, c.publish)
	} else {
		c.publish()
	}
	c.gate.Unlock()
}

// publishCommit bumps seq even: the batch in flight is committed.
func (c *CPLDS) publishCommit() { c.seq.Add(1) }

// --- read protocols ---

// Read returns the linearizable coreness estimate of v. It is lock-free
// and may run concurrently with update batches.
func (c *CPLDS) Read(v uint32) float64 {
	return c.S.EstimateFromLevel(c.ReadLevel(v))
}

// ReadLevel returns the linearizable level of v underlying the coreness
// estimate: v's level at the last committed epoch (see the package comment
// for the protocol and its proof sketch).
func (c *CPLDS) ReadLevel(v uint32) int32 {
	m := &c.marks[v]
	for {
		s := c.seq.Load()
		l := c.P.Level(v)
		stamp := m.stamp.Load()
		old := m.old.Load()
		if c.seq.Load() == s {
			if s&1 == 1 && stamp == s {
				return old
			}
			return l
		}
		c.readRetries.Add(1) // a batch started or committed: retry
	}
}

// ReadNonSync is the paper's non-linearizable NonSync baseline: it returns
// the estimate computed from the instantaneous live level, which may be an
// intermediate level mid-batch (unbounded error in theory, §6.3).
func (c *CPLDS) ReadNonSync(v uint32) float64 {
	return c.S.EstimateFromLevel(c.P.Level(v))
}

// ReadSync is the paper's SyncReads baseline: the read blocks until the
// in-flight batch (if any) completes, then reads the settled level.
func (c *CPLDS) ReadSync(v uint32) float64 {
	c.gate.RLock()
	est := c.S.EstimateFromLevel(c.P.Level(v))
	c.gate.RUnlock()
	return est
}

// --- epoch-pinned reads (consistent multi-vertex cuts) ---

// pinnedAttempts bounds the optimistic attempts of a committed-cut read
// (CutBegin/CutEnd) before it degrades to the blocking gated attempt. Each
// failed attempt implies a batch committed during the collection, so in the
// common regime (batches are orders of magnitude longer than reads) the
// first attempt succeeds; the bound only matters for pathological
// scan-length/batch-length ratios, where unbounded optimism could livelock.
const pinnedAttempts = 8

// Epoch returns the number of committed update batches. Values returned by
// the linearizable read protocol always correspond to the state at one of
// these epochs' boundaries.
func (c *CPLDS) Epoch() uint64 { return epochOf(c.seq.Load()) }

// CutBegin opens attempt number attempt (counting from 0) of a
// committed-cut read: a collection of linearizable values (ReadLevel, Read)
// that CutEnd then certifies as one batch boundary. It returns the seq
// value to validate against and the cut's epoch. The caller loops:
//
//	for attempt := 0; ; attempt++ {
//		seq, epoch := c.CutBegin(attempt)
//		collect()
//		if c.CutEnd(attempt, seq) {
//			return epoch
//		}
//	}
//
// Attempts before pinnedAttempts are optimistic and read-only: every
// linearizable read returns the level at the last committed epoch, even
// mid-batch, so a collection during which no batch committed and no
// restore ran holds the state at that epoch. A failed validation means a
// batch committed meanwhile — update progress, as in the paper's
// lock-freedom argument. Attempt pinnedAttempts is the gated one: CutBegin
// takes the batch gate in read mode, so no batch can start or commit until
// CutEnd releases it and reports true.
func (c *CPLDS) CutBegin(attempt int) (seq, epoch uint64) {
	if attempt >= pinnedAttempts {
		c.gate.RLock()
	}
	seq = c.seq.Load()
	return seq, epochOf(seq)
}

// CutEnd closes the attempt CutBegin opened and reports whether the values
// collected since belong to the epoch CutBegin returned: seq may have
// gained its in-flight bit, but no batch committed and no restore ran. The
// gated attempt always succeeds and releases the gate.
func (c *CPLDS) CutEnd(attempt int, seq uint64) bool {
	if attempt >= pinnedAttempts {
		c.gate.RUnlock()
		return true
	}
	return c.seq.Load()|1 == seq|1
}

// readCut runs collect as a committed-cut read until it validates and
// returns the cut's epoch.
func (c *CPLDS) readCut(collect func()) uint64 {
	for attempt := 0; ; attempt++ {
		seq, epoch := c.CutBegin(attempt)
		collect()
		if c.CutEnd(attempt, seq) {
			return epoch
		}
	}
}

// ReadManyPinned fills out[i] with the coreness estimate of vs[i] such that
// every value belongs to one batch boundary — the returned epoch — rather
// than a torn mix of boundaries. len(out) must equal len(vs). Lock-free in
// the common regime; see CutBegin for the protocol.
func (c *CPLDS) ReadManyPinned(vs []uint32, out []float64) uint64 {
	return c.readCut(func() {
		for i, v := range vs {
			out[i] = c.S.EstimateFromLevel(c.ReadLevel(v))
		}
	})
}

// ReadAllPinned fills out[v] with the coreness estimate of every vertex v,
// all from the single batch boundary it returns. len(out) must be
// NumVertices().
func (c *CPLDS) ReadAllPinned(out []float64) uint64 {
	return c.readCut(func() {
		for v := range out {
			out[v] = c.S.EstimateFromLevel(c.ReadLevel(uint32(v)))
		}
	})
}

// --- retained (multi-version) reads ---

// SetRetainedEpochs configures the multi-version store: the n most recent
// retired epochs stay exactly readable through the *At read protocols
// (pins can extend that window). n <= 0 disables retention — ReadManyAt
// and friends then only serve the current epoch. Quiescent use only.
func (c *CPLDS) SetRetainedEpochs(n int) {
	if n <= 0 {
		c.store = nil
		return
	}
	c.store = mvcc.NewStore(n)
}

// RetainedEpochs returns the configured retention depth (0 = disabled).
func (c *CPLDS) RetainedEpochs() int {
	if c.store == nil {
		return 0
	}
	return c.store.Retain()
}

// SetCommitHook installs the commit hook (see the onCommit field): after
// every batch, h receives the batch's delta and the publish closure, which
// it must call exactly once. active reports whether h needs the delta's
// Moves; it is evaluated once per commit, and the Moves are filled anyway
// when retention is on. The delta is reused across batches — h must not
// retain it. Pass (nil, nil) to remove. Quiescent use only.
func (c *CPLDS) SetCommitHook(active func() bool, h func(d *mvcc.Delta, publish func())) {
	c.commitActive, c.onCommit = active, h
}

// OldestReadableEpoch returns the oldest epoch the *At protocols can still
// serve (the current epoch when retention is disabled).
func (c *CPLDS) OldestReadableEpoch() uint64 {
	cur := c.Epoch()
	if c.store == nil {
		return cur
	}
	return c.store.OldestReadable(cur)
}

// CheckEpoch reports whether epoch is currently servable, failing with the
// typed mvcc evicted/future errors otherwise.
func (c *CPLDS) CheckEpoch(epoch uint64) error {
	cur := c.Epoch()
	if epoch > cur {
		return &mvcc.FutureEpochError{Epoch: epoch, Committed: cur}
	}
	if epoch == cur {
		return nil
	}
	if c.store == nil {
		return &mvcc.EvictedEpochError{Epoch: epoch, OldestReadable: cur}
	}
	return c.store.Check(epoch, cur)
}

// PinEpoch keeps epoch readable — eviction will not cross it — until a
// matching UnpinEpoch. Requires retention to be enabled.
func (c *CPLDS) PinEpoch(epoch uint64) error {
	cur := c.Epoch()
	if c.store == nil {
		if epoch > cur {
			return &mvcc.FutureEpochError{Epoch: epoch, Committed: cur}
		}
		return fmt.Errorf("cplds: cannot pin epoch %d with retention disabled: %w", epoch, mvcc.ErrEvicted)
	}
	return c.store.Pin(epoch, cur)
}

// UnpinEpoch releases one PinEpoch of epoch.
func (c *CPLDS) UnpinEpoch(epoch uint64) {
	if c.store != nil {
		c.store.Unpin(epoch)
	}
}

// rewind converts collected live levels (a validated cut at epoch cur)
// into estimates at the requested committed epoch by overlaying the
// retained deltas, or fails with the typed future/evicted error. vs == nil
// means levels is indexed by vertex id.
func (c *CPLDS) rewind(epoch, cur uint64, vs []uint32, levels []int32, out []float64) error {
	if epoch > cur {
		return &mvcc.FutureEpochError{Epoch: epoch, Committed: cur}
	}
	if epoch < cur {
		if c.store == nil {
			return &mvcc.EvictedEpochError{Epoch: epoch, OldestReadable: cur}
		}
		var err error
		if vs == nil {
			err = c.store.OverlayAll(epoch, cur, levels)
		} else {
			err = c.store.OverlayMany(epoch, cur, vs, levels)
		}
		if err != nil {
			return err
		}
	}
	for i, l := range levels {
		out[i] = c.S.EstimateFromLevel(l)
	}
	return nil
}

// ReadManyAt fills out[i] with the coreness estimate vs[i] had at the
// given committed epoch — even a retired one, as long as it is within the
// retention window (or pinned). len(out) must equal len(vs). Safe to call
// concurrently with update batches; the result is deterministic for a
// given epoch, so repeated reads at a pinned epoch are byte-identical.
func (c *CPLDS) ReadManyAt(vs []uint32, out []float64, epoch uint64) error {
	levels := make([]int32, len(vs))
	cur := c.readCut(func() {
		for i, v := range vs {
			levels[i] = c.ReadLevel(v)
		}
	})
	return c.rewind(epoch, cur, vs, levels, out)
}

// ReadAllAt fills out[v] with every vertex's coreness estimate at the
// given committed epoch (see ReadManyAt). len(out) must be NumVertices().
func (c *CPLDS) ReadAllAt(out []float64, epoch uint64) error {
	levels := make([]int32, len(out))
	cur := c.readCut(func() {
		for v := range levels {
			levels[v] = c.ReadLevel(uint32(v))
		}
	})
	return c.rewind(epoch, cur, nil, levels, out)
}

// Levels fills out[v] with every vertex's current level. Quiescent use
// only (durability snapshots run it under the engine's quiesce section);
// use ReadLevel for concurrent reads.
func (c *CPLDS) Levels(out []int32) {
	for v := range out {
		out[v] = c.P.Level(uint32(v))
	}
}

// Restore resets the CPLDS to a previously captured quiescent state: the
// graph (from a CSR snapshot), every vertex's level, and the committed
// epoch. The PLDS rebuilds its derived state (up counters) from the
// restored graph and levels, and the multi-version store, if retention is
// enabled, restarts empty (pre-restore retired epochs are not recoverable —
// only their final state is).
//
// The caller must exclude updaters (no batch in flight — recovery runs
// single-threaded, replication bootstrap runs under the engine's quiesce),
// but concurrent readers are safe: the restore is a batch that moves every
// vertex. It stamps every vertex with its pre-restore level under an odd
// seq, so reads during it return the pre-restore state, and it ends by
// storing a seq with the restored epoch and a higher restore count, so no
// seq value repeats and a committed cut cannot validate across it, even
// when the restored epoch equals the current one.
func (c *CPLDS) Restore(csr *graph.CSR, levels []int32, epoch uint64) error {
	n := c.NumVertices()
	if csr.NumVertices() != n {
		return fmt.Errorf("cplds: restore of %d-vertex snapshot into %d-vertex structure",
			csr.NumVertices(), n)
	}
	if len(levels) != n {
		return fmt.Errorf("cplds: restore with %d levels for %d vertices", len(levels), n)
	}
	for v, l := range levels {
		if l < 0 || l > c.S.MaxLevel() {
			return fmt.Errorf("cplds: restored level %d of vertex %d outside [0, %d]",
				l, v, c.S.MaxLevel())
		}
	}
	c.gate.Lock()
	defer c.gate.Unlock()
	inFlight := c.seq.Add(1)
	parallel.For(n, func(v int) {
		m := &c.marks[v]
		m.old.Store(c.P.Level(uint32(v)))
		m.stamp.Store(inFlight)
	})
	c.P.Restore(graph.FromCSR(csr), levels, epoch)
	if c.store != nil {
		c.store.Reset()
	}
	c.seq.Store((inFlight>>restoreShift+1)<<restoreShift | epoch<<1)
	return nil
}

// IsMarked reports whether v has moved in the batch in flight. Intended
// for tests and diagnostics.
func (c *CPLDS) IsMarked(v uint32) bool {
	s := c.seq.Load()
	return s&1 == 1 && c.marks[v].stamp.Load() == s
}

// CheckInvariants verifies the LDS invariants of the underlying PLDS, plus
// the epoch bookkeeping: at quiescence seq must be even (no batch in
// flight) and its epoch in lockstep with the PLDS's committed-batch epoch —
// the two counters are published by the same batch commit and drifting
// apart would silently break epoch-pinned reads. Must not run concurrently
// with a batch.
func (c *CPLDS) CheckInvariants() error {
	seq := c.seq.Load()
	if seq&1 != 0 {
		return fmt.Errorf("cplds: seq %#x odd at quiescence (a batch never committed)", seq)
	}
	if got, want := epochOf(seq), c.P.Epoch(); got != want {
		return fmt.Errorf("cplds: commit epoch %d out of lockstep with PLDS epoch %d", got, want)
	}
	if c.store != nil {
		if err := c.store.CheckInvariants(epochOf(seq)); err != nil {
			return err
		}
	}
	return c.P.CheckInvariants()
}

// Estimate returns the live (non-linearizable) estimate; exposed for
// harness symmetry with PLDS.
func (c *CPLDS) Estimate(v uint32) float64 { return c.P.Estimate(v) }
