// Package cplds implements the Concurrent Parallel Level Data Structure
// (CPLDS) — the contribution of Liu, Shun and Zablotchi (PPoPP 2024):
// a hybrid concurrent–parallel dynamic k-core data structure in which
// asynchronous, lock-free coreness reads proceed concurrently with parallel
// batches of edge updates while remaining linearizable.
//
// # Design (paper §4–5)
//
// Each vertex has an operation-descriptor slot. When a vertex first moves
// during a batch it becomes marked: a descriptor recording its pre-batch
// (old) level is installed, and the vertex is merged into the dependency
// DAGs of (a) its triggers — marked neighbours that may have caused the
// move — and (b) its marked batch neighbours — endpoints of batch edges
// incident to it (Lemma 6.3: no updated edge may cross DAGs). DAGs are
// merged with a lock-free union-find over descriptor parent pointers, with
// deterministic link-by-minimum-root and path compression.
//
// A read of v double-collects the global batch number and v's live level
// around an inspection of v's DAG (check_DAG): if the DAG root is still
// marked, the read returns the coreness estimate from v's old level;
// otherwise it returns the estimate from v's (stable) live level. Reads are
// lock-free: every retry implies that an update made progress.
//
// At the end of each batch all descriptors are removed — roots first, then
// non-roots — preserving the invariant that a DAG's root is unmarked before
// any of its non-roots, which is what allows check_DAG to stop early at any
// unmarked descriptor.
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

// Root is the parent value of a DAG root descriptor (I_AM_ROOT in the
// paper's pseudocode).
const Root int32 = -1

// Descriptor is an operation descriptor for a vertex that is changing
// levels in the current batch.
//
// Descriptors are pooled: every vertex owns one Descriptor for its whole
// lifetime and the same object is re-installed each time the vertex moves
// in a batch (a degenerate free list with guaranteed-free reuse, since a
// vertex is marked at most once per batch). Reuse is what the stamp in the
// parent word exists for: a reader that loaded the descriptor just before
// it was unmarked may still attempt a path-compression write after the
// object has been recycled into a later batch's DAG. The write is a CAS
// whose expected value carries the stamp of the batch the reader started
// from, so it fails harmlessly against a recycled descriptor. Result-side
// safety needs no stamp because ReadLevel loads the old level inside its
// batch-number double collect: a recycle can only rewrite `old` after the
// recycling batch bumped the batch number, which forces that read to
// retry.
type Descriptor struct {
	// word packs (stamp << 32) | uint32(parent): stamp is the low 32 bits
	// of the batch number the descriptor was installed in, parent is the
	// vertex id of this node's parent in the dependency DAG, or Root
	// (encoded as 0xFFFFFFFF). It changes under CAS (union, reader-side
	// path compression) and atomic store (install, updater-side path
	// compression).
	word atomic.Uint64
	// old is the vertex's level before the current batch of updates,
	// atomic because a stale reader may load it while the updater of a
	// later batch re-installs the descriptor.
	old atomic.Int32
}

// packWord builds a parent word from a batch stamp and a parent id.
func packWord(stamp uint32, parent int32) uint64 {
	return uint64(stamp)<<32 | uint64(uint32(parent))
}

// parentOf extracts the parent id (or Root) from a parent word.
func parentOf(w uint64) int32 { return int32(uint32(w)) }

// OldLevel returns the vertex's level before the batch that installed this
// descriptor.
func (d *Descriptor) OldLevel() int32 { return d.old.Load() }

// Status is the result of inspecting a vertex's dependency DAG.
type Status int

const (
	// Unmarked means the vertex (or its DAG root) is not being updated.
	Unmarked Status = iota
	// Marked means the vertex's DAG root still has an active descriptor.
	Marked
)

// CPLDS wraps the PLDS batch engine with the descriptor/DAG machinery and
// the concurrent read protocol.
//
// Concurrency contract: InsertBatch/DeleteBatch from one updater goroutine
// at a time (internally parallel); Read, ReadNonSync and ReadSync from any
// number of goroutines at any time.
type CPLDS struct {
	P *plds.PLDS
	S *lds.Structure

	desc     []atomic.Pointer[Descriptor]
	pool     []Descriptor // per-vertex descriptor pool (see Descriptor)
	batchNum atomic.Uint64

	// commitSeq is the commit sequence lock for epoch-pinned multi-vertex
	// reads. It is 2*epoch while the structure is outside an unmark phase
	// (epoch = committed batches) and odd while BatchEnd is unmarking
	// descriptors. The single-vertex read protocol never needs it; it exists
	// because the *visibility* of a batch's new levels to readers is not a
	// single instant — it spreads across the unmark passes — so a reader
	// collecting many vertices can only certify "all my values are from one
	// batch boundary" if no unmark phase started, ran, or ended during its
	// collection. An even, unchanged commitSeq across the collection
	// certifies exactly that; CutBegin/CutEnd is the one protocol that
	// reads it.
	commitSeq atomic.Uint64

	// Batch-scoped state (owned by the updater between BatchStart/BatchEnd).
	kind  plds.Kind
	stamp uint32 // low 32 bits of the current batch number

	// batchDir is the flat batch-edge index: both directed copies of every
	// applied batch edge, sorted by (U, V), for endpoint lookups by binary
	// search. It is the list the graph sorted to apply the batch
	// (graph.Dynamic.LastBatchDirected), borrowed until the batch ends.
	batchDir []graph.Edge

	// marked is the lock-free marked-vertex arena: VertexMoving claims a
	// slot with an atomic cursor bump (a vertex is marked at most once per
	// batch, so n slots always suffice). This replaces a global
	// mutex-guarded append that serialized concurrent markers.
	marked    []uint32
	markedLen atomic.Int64

	// gate implements the SyncReads baseline: the updater write-locks it
	// for the duration of each batch, so ReadSync blocks until the batch
	// completes (exactly the paper's synchronous baseline). The gated
	// attempt of a committed-cut read (CutBegin) read-locks it too.
	gate sync.RWMutex

	// delta is this batch's commit delta, reused across batches: BatchEnd
	// fills it with one pass over the marked arena after the unmark passes
	// (pre-batch levels from the descriptor pool, post-batch levels live),
	// keeping only movers whose level changed, sorted by vertex. It is
	// filled only when store is set or commitActive reports a consumer.
	delta mvcc.Delta

	// store, when non-nil, is the multi-version store: BatchEnd puts each
	// batch's delta into it before publishing the commit, and the *At read
	// protocols overlay the retained deltas to serve retired epochs exactly.
	store *mvcc.Store

	// onCommit, when non-nil, is the commit hook: it receives this batch's
	// delta and a closure that flips commitSeq even, and must call that
	// closure exactly once. It runs while the gate still excludes the next
	// batch. The sharded engine uses it to serialize publication with its
	// cross-shard vector log and to derive change-feed events from the
	// delta. commitActive is evaluated once per commit; when it reports
	// false and retention is off, the delta's Moves are left empty.
	onCommit     func(d *mvcc.Delta, publish func())
	commitActive func() bool
	publish      func() // c.publishCommit, bound once so commits allocate nothing

	// beforeUnmark, when non-nil, runs at the start of BatchEnd while all
	// descriptors are still in place. Test hook for inspecting the final
	// dependency DAGs of a batch.
	beforeUnmark func(kind plds.Kind, marked []uint32)

	// noPathCompression disables path compression in DAG traversals (reads
	// and unions). Ablation knob: compression is the paper's §5.2
	// optimization; disabling it lengthens root paths but must not affect
	// correctness.
	noPathCompression bool

	// readRetries counts how many times the read protocol had to restart
	// (batch number changed or live level moved). Diagnostic for the
	// lock-freedom argument and the ablation benchmarks.
	readRetries atomic.Uint64
}

// SetPathCompression toggles the path-compression optimization (enabled by
// default). Quiescent use only; intended for ablation benchmarks.
func (c *CPLDS) SetPathCompression(enabled bool) { c.noPathCompression = !enabled }

// ReadRetries returns the cumulative number of read-protocol restarts.
func (c *CPLDS) ReadRetries() uint64 { return c.readRetries.Load() }

// New returns an empty CPLDS over n vertices with the given parameters.
func New(n int, p lds.Params) *CPLDS {
	c := &CPLDS{
		desc:   make([]atomic.Pointer[Descriptor], n),
		pool:   make([]Descriptor, n),
		marked: make([]uint32, n),
	}
	c.P = plds.New(n, p, c)
	c.S = c.P.S
	c.publish = c.publishCommit
	return c
}

// NumVertices returns the number of vertices.
func (c *CPLDS) NumVertices() int { return len(c.desc) }

// Graph exposes the underlying dynamic graph (must not be accessed
// concurrently with a running batch).
func (c *CPLDS) Graph() *graph.Dynamic { return c.P.Graph() }

// BatchNumber returns the current batch number.
func (c *CPLDS) BatchNumber() uint64 { return c.batchNum.Load() }

// InsertBatch inserts a batch of edges; concurrent reads remain
// linearizable throughout. Returns the number of edges applied.
func (c *CPLDS) InsertBatch(edges []graph.Edge) int { return c.P.InsertBatch(edges) }

// DeleteBatch deletes a batch of edges; concurrent reads remain
// linearizable throughout. Returns the number of edges removed.
func (c *CPLDS) DeleteBatch(edges []graph.Edge) int { return c.P.DeleteBatch(edges) }

// --- plds.Tracker implementation (update-side protocol) ---

// BatchStart begins a batch: takes the sync gate, bumps the batch number
// and borrows the graph's sorted directed copy of the applied edges as the
// flat batch-edge index for marked-batch-neighbour lookups.
func (c *CPLDS) BatchStart(kind plds.Kind, _ []graph.Edge) {
	c.gate.Lock()
	c.stamp = uint32(c.batchNum.Add(1))
	c.kind = kind
	c.batchDir = c.P.Graph().LastBatchDirected()
	c.markedLen.Store(0)
}

// forEachBatchNeighbor calls f for every endpoint w such that (v, w) is an
// applied edge of the current batch, via binary search on the flat index.
func (c *CPLDS) forEachBatchNeighbor(v uint32, f func(w uint32)) {
	i, _ := slices.BinarySearchFunc(c.batchDir, v, func(e graph.Edge, v uint32) int {
		return cmp.Compare(e.U, v)
	})
	for ; i < len(c.batchDir) && c.batchDir[i].U == v; i++ {
		f(c.batchDir[i].V)
	}
}

// VertexMoving marks v: it installs a descriptor carrying v's pre-batch
// level and merges v into the DAGs of its triggers and marked batch
// neighbours. Called concurrently by the batch engine, once per vertex per
// batch, before v's first level change.
func (c *CPLDS) VertexMoving(v uint32, oldLevel int32, kind plds.Kind) {
	d := &c.pool[v]
	d.old.Store(oldLevel)
	d.word.Store(packWord(c.stamp, Root))
	c.desc[v].Store(d)
	c.marked[c.markedLen.Add(1)-1] = v

	// Triggers: marked graph neighbours that may have caused v's move.
	// Insertions: marked neighbours at v's level or above (a vertex that
	// moved up past v can push v's up-degree over the bound). Deletions:
	// marked neighbours that dropped below level ℓ(v)−1 (they left v's
	// Invariant 2 neighbourhood).
	c.P.Graph().Neighbors(v, func(w uint32) bool {
		if c.desc[w].Load() == nil {
			return true
		}
		lw := c.P.Level(w)
		if kind == plds.Insert {
			if lw >= oldLevel {
				c.union(v, w)
			}
		} else {
			if lw < oldLevel-1 {
				c.union(v, w)
			}
		}
		return true
	})
	// Marked batch neighbours: endpoints of updated edges incident to v
	// must share v's DAG regardless of level (Lemma 6.3).
	c.forEachBatchNeighbor(v, func(w uint32) {
		if c.desc[w].Load() != nil {
			c.union(v, w)
		}
	})
}

// BatchEnd unmarks every descriptor — roots first, then the rest — and
// releases the sync gate.
func (c *CPLDS) BatchEnd(kind plds.Kind) {
	marked := c.marked[:c.markedLen.Load()]
	if c.beforeUnmark != nil {
		c.beforeUnmark(kind, marked)
	}
	// Enter the unmark phase: commitSeq goes odd, telling epoch-pinned
	// multi-reads that batch-boundary visibility is in flux. Mid-batch (up
	// to here) every read returns the pre-batch value, so pinned readers
	// need no signal; it is only while descriptors disappear that a
	// multi-read could mix pre- and post-batch values.
	c.commitSeq.Add(1)
	// Pass 1: unmark all DAG roots.
	parallel.For(len(marked), func(i int) {
		v := marked[i]
		if d := c.desc[v].Load(); d != nil && parentOf(d.word.Load()) == Root {
			c.desc[v].Store(nil)
		}
	})
	// Pass 2: unmark all remaining marked vertices.
	parallel.For(len(marked), func(i int) {
		c.desc[marked[i]].Store(nil)
	})
	// Capture the commit delta in one pass. The pre-batch levels still sit
	// in the descriptor pool (unmarking clears the descriptor pointers, not
	// the pooled `old` fields; a vertex's pool slot is only rewritten when
	// the *next* batch marks it, which this batch's gate still excludes).
	d := &c.delta
	d.Epoch = (c.commitSeq.Load() + 1) >> 1
	d.Moves = d.Moves[:0]
	if c.store != nil || (c.onCommit != nil && c.commitActive()) {
		for _, v := range marked {
			if old, now := c.pool[v].old.Load(), c.P.Level(v); old != now {
				d.Moves = append(d.Moves, mvcc.Move{V: v, Old: old, New: now})
			}
		}
		slices.SortFunc(d.Moves, func(a, b mvcc.Move) int { return cmp.Compare(a.V, b.V) })
	}
	// Retention: retain the delta *before* publishing the commit, so any
	// reader that observes the new epoch finds its delta present.
	if c.store != nil {
		c.store.Put(d)
	}
	// Leave the unmark phase: commitSeq becomes 2*(epoch+1) — the batch is
	// committed and uniformly visible.
	if c.onCommit != nil {
		c.onCommit(d, c.publish)
	} else {
		c.publish()
	}
	c.gate.Unlock()
}

// publishCommit flips commitSeq even, publishing the batch's commit.
func (c *CPLDS) publishCommit() { c.commitSeq.Add(1) }

// --- dependency-DAG union-find over descriptors ---

// findRoot returns the root vertex of v's DAG, compressing the path. The
// caller must know v is currently marked. Returns (root, true), or
// (0, false) if an unmarked descriptor was encountered (possible only for
// concurrent readers racing batch end; the updater never sees it).
func (c *CPLDS) findRoot(v uint32) (uint32, bool) {
	x := v
	d := c.desc[x].Load()
	if d == nil {
		return 0, false
	}
	// Walk to the root.
	for {
		p := parentOf(d.word.Load())
		if p == Root {
			break
		}
		nd := c.desc[uint32(p)].Load()
		if nd == nil {
			return 0, false
		}
		x = uint32(p)
		d = nd
	}
	if !c.noPathCompression {
		c.compress(v, x)
	}
	return x, true
}

// compress points every node on v's path above x directly at x, where x
// was v's root when findRoot walked the path.
//
// The invariant every parent write keeps is parent < child: union links
// the larger root under the smaller, and compression only stores x into a
// node w > x. Parent chains therefore strictly decrease, so they are
// acyclic and reach a root in at most n steps. Other workers may relink x
// (and then its new root) while this walk runs, so the walk may step past
// x onto nodes smaller than x; bounding it by w > x stops it there instead
// of storing x under them, which would close a cycle. Racing stores of
// different roots into one node are safe because each stores an ancestor
// with a smaller id. Only the updater runs findRoot, and every non-nil
// descriptor belongs to the current batch, so stores carry the current
// stamp.
func (c *CPLDS) compress(v, x uint32) {
	for w := v; w > x; {
		dw := c.desc[w].Load()
		if dw == nil {
			return
		}
		p := parentOf(dw.word.Load())
		if p == Root {
			return
		}
		if uint32(p) > x {
			dw.word.Store(packWord(c.stamp, int32(x)))
		}
		w = uint32(p)
	}
}

// union merges the DAGs of u and w with deterministic
// link-larger-root-under-smaller CAS linking. Only called by the updater
// during a batch, when both u and w are marked.
func (c *CPLDS) union(u, w uint32) {
	for {
		ru, ok := c.findRoot(u)
		if !ok {
			return
		}
		rw, ok := c.findRoot(w)
		if !ok {
			return
		}
		if ru == rw {
			return
		}
		lo, hi := ru, rw
		if lo > hi {
			lo, hi = hi, lo
		}
		d := c.desc[hi].Load()
		if d == nil {
			return
		}
		if d.word.CompareAndSwap(packWord(c.stamp, Root), packWord(c.stamp, int32(lo))) {
			return
		}
		// hi stopped being a root (a concurrent union won); retry.
	}
}

// checkDAG implements Algorithm 3: it reports whether the DAG containing
// the given descriptor is still marked. Traversal stops early at any
// unmarked descriptor — by the unmark-roots-first invariant, an unmarked
// non-root implies an unmarked root.
func (c *CPLDS) checkDAG(d *Descriptor) Status {
	if d == nil {
		return Unmarked
	}
	first := d
	firstWord := d.word.Load()
	firstParent := parentOf(firstWord)
	if firstParent == Root {
		return Marked
	}
	last := firstParent
	for {
		nd := c.desc[uint32(last)].Load()
		if nd == nil {
			// Unmark-roots-first invariant: an unmarked node on the path
			// implies the root is unmarked too.
			return Unmarked
		}
		p := parentOf(nd.word.Load())
		if p == Root {
			// Reader-side path compression: shortcut the entry node to the
			// root. Within one batch a non-root parent is only ever
			// rewritten to another ancestor, so the write is benign; the
			// CAS against the originally observed word makes it a no-op if
			// the descriptor was recycled into a later batch (the stamp
			// half of the word has changed) or already re-compressed.
			if last != firstParent && !c.noPathCompression {
				first.word.CompareAndSwap(firstWord, packWord(uint32(firstWord>>32), last))
			}
			return Marked
		}
		last = p
	}
}

// --- read protocols ---

// Read returns the linearizable coreness estimate of v (Algorithm 4). It
// is lock-free and may run concurrently with update batches.
func (c *CPLDS) Read(v uint32) float64 {
	return c.S.EstimateFromLevel(c.ReadLevel(v))
}

// ReadLevel returns the linearizable level of v underlying the coreness
// estimate — the pre-batch level if v's dependency DAG is still marked, and
// the live level otherwise.
func (c *CPLDS) ReadLevel(v uint32) int32 {
	for {
		b1 := c.batchNum.Load()
		l1 := c.P.Level(v)
		d := c.desc[v].Load()
		status := c.checkDAG(d)
		// Load the old level before validating the batch number: a pooled
		// descriptor recycled by a later batch can only change `old` after
		// that batch bumped the batch number, so a load inside a passing
		// double collect is guaranteed to be this batch's value.
		var oldLevel int32
		if status == Marked {
			oldLevel = d.OldLevel()
		}
		l2 := c.P.Level(v)
		b2 := c.batchNum.Load()
		if b1 != b2 {
			c.readRetries.Add(1)
			continue // a new batch started: state may mix batches
		}
		if status == Marked {
			return oldLevel
		}
		if l1 == l2 {
			return l1
		}
		// The live level changed under us: an update made progress; retry.
		c.readRetries.Add(1)
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
func (c *CPLDS) Epoch() uint64 { return c.commitSeq.Load() >> 1 }

// CutBegin opens attempt number attempt (counting from 0) of a
// committed-cut read: a collection of linearizable values (ReadLevel, Read)
// that CutEnd then certifies as one batch boundary. It returns the commit
// sequence to validate against — the cut's epoch is seq/2 — and ok = false
// while an unmark phase is in flight, in which case the attempt is spent and
// CutEnd must not be called. The caller loops:
//
//	for attempt := 0; ; attempt++ {
//		seq, ok := c.CutBegin(attempt)
//		if !ok {
//			continue
//		}
//		collect()
//		if c.CutEnd(attempt, seq) {
//			return seq >> 1
//		}
//	}
//
// Attempts before pinnedAttempts are optimistic and read-only: mid-batch
// every linearizable read returns the pre-batch (last committed) value, so
// an even commit sequence unchanged across the collection proves every
// value is the state at epoch seq/2. A failed validation means a batch
// committed meanwhile — update progress, as in the paper's lock-freedom
// argument. Attempt pinnedAttempts is the gated one: CutBegin takes the
// batch gate in read mode, so no batch can start or commit until CutEnd
// releases it and reports true. The collection runs unchanged under the
// gate: BatchEnd clears every descriptor before releasing the gate, so
// ReadLevel returns the settled level on its first pass.
func (c *CPLDS) CutBegin(attempt int) (seq uint64, ok bool) {
	if attempt >= pinnedAttempts {
		c.gate.RLock() // no batch holds the gate, so seq is even
	}
	seq = c.commitSeq.Load()
	return seq, seq&1 == 0
}

// CutEnd closes the attempt CutBegin opened and reports whether the values
// collected since belong to the batch boundary seq/2. The gated attempt
// always succeeds and releases the gate.
func (c *CPLDS) CutEnd(attempt int, seq uint64) bool {
	if attempt >= pinnedAttempts {
		c.gate.RUnlock()
		return true
	}
	return c.commitSeq.Load() == seq
}

// ReadManyPinned fills out[i] with the coreness estimate of vs[i] such that
// every value belongs to one batch boundary — the returned epoch — rather
// than a torn mix of boundaries. len(out) must equal len(vs). Lock-free in
// the common regime; see CutBegin for the protocol.
func (c *CPLDS) ReadManyPinned(vs []uint32, out []float64) uint64 {
	for attempt := 0; ; attempt++ {
		seq, ok := c.CutBegin(attempt)
		if !ok {
			continue
		}
		for i, v := range vs {
			out[i] = c.S.EstimateFromLevel(c.ReadLevel(v))
		}
		if c.CutEnd(attempt, seq) {
			return seq >> 1
		}
	}
}

// ReadAllPinned fills out[v] with the coreness estimate of every vertex v,
// all from the single batch boundary it returns. len(out) must be
// NumVertices().
func (c *CPLDS) ReadAllPinned(out []float64) uint64 {
	for attempt := 0; ; attempt++ {
		seq, ok := c.CutBegin(attempt)
		if !ok {
			continue
		}
		for v := range out {
			out[v] = c.S.EstimateFromLevel(c.ReadLevel(uint32(v)))
		}
		if c.CutEnd(attempt, seq) {
			return seq >> 1
		}
	}
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
	for attempt := 0; ; attempt++ {
		seq, ok := c.CutBegin(attempt)
		if !ok {
			continue
		}
		for i, v := range vs {
			levels[i] = c.ReadLevel(v)
		}
		if c.CutEnd(attempt, seq) {
			return c.rewind(epoch, seq>>1, vs, levels, out)
		}
	}
}

// ReadAllAt fills out[v] with every vertex's coreness estimate at the
// given committed epoch (see ReadManyAt). len(out) must be NumVertices().
func (c *CPLDS) ReadAllAt(out []float64, epoch uint64) error {
	levels := make([]int32, len(out))
	for attempt := 0; ; attempt++ {
		seq, ok := c.CutBegin(attempt)
		if !ok {
			continue
		}
		for v := range levels {
			levels[v] = c.ReadLevel(uint32(v))
		}
		if c.CutEnd(attempt, seq) {
			return c.rewind(epoch, seq>>1, nil, levels, out)
		}
	}
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
// restored graph and levels; the batch counter and commit sequence are
// re-seeded to the restored epoch so the epoch arithmetic of the pinned
// read protocols continues seamlessly; and the multi-version store, if
// retention is enabled, restarts empty (pre-restore retired epochs are
// not recoverable — only their final state is).
//
// The caller must exclude updaters (no batch in flight — recovery runs
// single-threaded, replication bootstrap runs under the engine's
// quiesce), but concurrent *readers* are safe: the restore runs under the
// batch gate with the commit sequence held odd, exactly the visibility
// protocol of a batch's unmark phase, so a pinned multi-vertex read that
// overlaps the restore fails its sequence validation and retries (its
// gated attempt blocks until the restore ends), and a single-vertex read
// retries on the batch-number change. Restored epochs must be >= the
// current epoch (replication only moves forward), keeping the retry
// arithmetic monotone.
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
	c.commitSeq.Add(1) // odd: multi-vertex readers retry until the new state is whole
	c.P.Restore(graph.FromCSR(csr), levels, epoch)
	c.batchNum.Store(epoch)
	if c.store != nil {
		c.store.Reset()
	}
	c.commitSeq.Store(2 * epoch)
	return nil
}

// IsMarked reports whether v currently has an active descriptor. Intended
// for tests and diagnostics.
func (c *CPLDS) IsMarked(v uint32) bool { return c.desc[v].Load() != nil }

// DescriptorOf returns v's current descriptor (nil when unmarked). The
// returned descriptor must be treated as read-only. Intended for tests.
func (c *CPLDS) DescriptorOf(v uint32) *Descriptor { return c.desc[v].Load() }

// Parent returns the parent vertex of d's DAG node and whether d is a root.
// Intended for tests.
func (d *Descriptor) Parent() (int32, bool) {
	p := parentOf(d.word.Load())
	return p, p == Root
}

// CheckInvariants verifies the LDS invariants of the underlying PLDS, plus
// the epoch bookkeeping: at quiescence the commit sequence must be even
// (no unmark phase in flight) and in lockstep with the PLDS's committed-
// batch epoch — the two counters are published by the same batch commit
// and drifting apart would silently break epoch-pinned reads. Must not run
// concurrently with a batch.
func (c *CPLDS) CheckInvariants() error {
	seq := c.commitSeq.Load()
	if seq&1 != 0 {
		return fmt.Errorf("cplds: commit sequence %d odd at quiescence (unmark phase never closed)", seq)
	}
	if got, want := seq>>1, c.P.Epoch(); got != want {
		return fmt.Errorf("cplds: commit epoch %d out of lockstep with PLDS epoch %d", got, want)
	}
	if c.store != nil {
		if err := c.store.CheckInvariants(seq >> 1); err != nil {
			return err
		}
	}
	return c.P.CheckInvariants()
}

// Estimate returns the live (non-linearizable) estimate; exposed for
// harness symmetry with PLDS.
func (c *CPLDS) Estimate(v uint32) float64 { return c.P.Estimate(v) }
