// Package shard provides the repository's one k-core engine: vertices are
// hash-partitioned across P cplds.CPLDS instances, and update submissions
// are accepted from any number of goroutines. P = 1 is a single CPLDS
// behind a mutex; P > 1 adds cut-edge mirroring and a batch-coalescing
// scheduler.
//
// # Partitioning
//
// Vertex v is owned by shard ShardOf(v) (a multiplicative hash of v). An
// edge (u, v) is routed to the shard owning u and, when different, mirrored
// into the shard owning v, so every shard's local subgraph contains all
// edges incident to the vertices it owns. Coreness reads of v route
// directly to v's owning shard and use the CPLDS lock-free linearizable
// read protocol there: reads never block on updates.
//
// # Scheduling
//
// Updates are submitted via Apply/Insert/Delete, which may be called
// concurrently. With P = 1 a submission takes the shard's apply lock and
// runs as an insertion sub-batch then a deletion sub-batch on the CPLDS,
// exactly the paper's model; concurrent submissions wait for the lock and
// are not merged. With P > 1 each submission is split into per-shard
// sub-batches and enqueued; per shard, a combining lock drains everything
// queued, coalesces it into one CPLDS batch (deduping opposing
// insert/delete pairs of the same edge — the latest submission wins), and
// applies it under that shard's one-updater contract. Sub-batches of
// distinct shards are applied in parallel. A caller's submission is thus
// folded into at most one CPLDS batch per shard together with every other
// submission that queued behind the same in-flight batch.
//
// Cross-shard enqueue of one submission is atomic and globally ordered, so
// the two mirror copies of a cut edge always converge to the same presence
// state even when racing submissions touch the same edge.
//
// # Semantics
//
// Each shard maintains the paper's (2+3/λ)(1+δ)-approximation over its
// local subgraph (the edges incident to its owned vertices). For P = 1
// that subgraph is the whole graph, so the guarantee is the paper's. For
// P > 1 the estimate returned for v approximates v's coreness in its owning
// shard's subgraph. The subgraph's exact coreness never exceeds the global
// coreness, so the estimate still respects the upper side of the bound
// against the global value (est ≤ factor × global coreness), but it may
// undershoot the global coreness by more than the factor; reads remain
// per-vertex linearizable at shard granularity. This is the
// throughput-for-globality trade the sharded deployment makes; callers
// that need the full global guarantee run with P = 1.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kcore/internal/cplds"
	"kcore/internal/exact"
	"kcore/internal/feed"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/mvcc"
	"kcore/internal/parallel"
	"kcore/internal/wal"
)

// opKind distinguishes the two edge operations in a coalesced batch.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
)

// entry is one (edge, operation) pair routed to a shard. primary marks the
// copy that owns accounting for the edge (the owner shard of the canonical
// lower endpoint), so mirrored cut edges are counted exactly once.
type entry struct {
	e       graph.Edge
	kind    opKind
	primary bool
}

// subOp is the portion of one caller submission routed to one shard.
type subOp struct {
	entries []entry
	op      *pendingOp
	done    atomic.Bool
}

// pendingOp aggregates the per-shard results of one caller submission.
type pendingOp struct {
	inserted atomic.Int64
	deleted  atomic.Int64
}

// shardState is one shard: a CPLDS over the local subgraph plus its
// scheduler queue, combining lock and load counters.
type shardState struct {
	c   *cplds.CPLDS
	idx int // this shard's index (for batch-log records)

	qmu   sync.Mutex
	queue []*subOp

	applyMu sync.Mutex // held while draining + applying (the one updater)

	batches atomic.Uint64 // CPLDS sub-batches (P = 1) or coalesced rounds (P > 1)

	// events is the change-feed extraction arena, reused across commits and
	// only touched inside this shard's commit hook.
	events []feed.Event

	// Load counters, maintained atomically by the shard's updater so that
	// Stats can be served concurrently with updates.
	inserted     atomic.Int64 // edges applied to the local subgraph, total
	deleted      atomic.Int64
	localEdges   atomic.Int64 // edges currently in the local subgraph (incl. mirrors)
	primaryEdges atomic.Int64 // distinct global edges owned by this shard
}

// Engine is the CPLDS engine over P shards.
//
// Concurrency contract, for every P: Apply, Insert and Delete may be
// called from any number of goroutines; Read, ReadNonSync, ReadSync, the
// pinned and retained reads, NumEdges, Epoch and Stats from any goroutine
// at any time. Quiescent operations (Snapshot, GlobalEdges, Degree,
// IncidentEdges, ExactCoreness, CheckInvariants, LocalGraph) must not run
// concurrently with updates.
type Engine struct {
	n      int
	p      int
	params lds.Params
	shards []*shardState
	owned  []int // owned vertex count per shard (fixed by the hash)

	// submitMu makes cross-shard enqueue atomic: every shard queue sees
	// submissions appended in the same global order, which is what the
	// latest-submission-wins coalescing relies on for mirror convergence.
	submitMu sync.Mutex

	numEdges atomic.Int64 // global (deduplicated) edge count

	// Multi-version retention (SetRetainedEpochs): each shard's CPLDS keeps
	// a per-epoch delta store of depth retained. With p > 1, vlog is the one
	// cross-shard epoch counter, present whatever the retention: every
	// shard's commit publication runs under its lock (via the commit hook),
	// so global epochs are totally ordered, and it maps the most recent
	// retained global epochs to the per-shard commit vectors pinned reads
	// certify. nil with p == 1, where the global epoch is the single
	// shard's local epoch.
	retained int
	vlog     *mvcc.VectorLog

	// Change feed (SetEventHub). Each shard's one commit hook (see commit)
	// derives the feed's events from the CPLDS commit delta, stamped with
	// the cross-shard epoch of the commit.
	hub *feed.Hub

	// batchLog, when non-nil, receives one wal.Batch per committed
	// coalesced round, invoked inside the committing shard's one-updater
	// section (see SetBatchLog). Installed before the engine serves
	// traffic or under Quiesce, so no synchronization beyond applyMu is
	// needed on the read side.
	batchLog func(wal.Batch)
}

// New returns an engine over n vertices partitioned across p shards
// (p < 1 is treated as 1).
func New(n, p int, params lds.Params) *Engine {
	if p < 1 {
		p = 1
	}
	e := &Engine{n: n, p: p, params: params, shards: make([]*shardState, p)}
	for i := range e.shards {
		s := &shardState{c: cplds.New(n, params), idx: i}
		s.c.SetCommitHook(e.feedActive, func(d *mvcc.Delta, publish func()) { e.commit(s, d, publish) })
		e.shards[i] = s
	}
	if p > 1 {
		e.vlog = mvcc.NewVectorLog(make([]uint64, p), 0)
	}
	e.owned = make([]int, p)
	for v := 0; v < n; v++ {
		e.owned[e.ShardOf(uint32(v))]++
	}
	return e
}

// NumVertices returns the (fixed) number of vertices.
func (e *Engine) NumVertices() int { return e.n }

// NumShards returns the shard count P.
func (e *Engine) NumShards() int { return e.p }

// Params returns the approximation parameters.
func (e *Engine) Params() lds.Params { return e.params }

// ApproxFactor returns the per-shard theoretical approximation factor.
func (e *Engine) ApproxFactor() float64 { return e.params.ApproxFactor() }

// NumEdges returns the number of distinct edges currently in the global
// graph (mirrored copies counted once). It is safe to call concurrently
// with updates; the value is the count as of the last completed accounting.
func (e *Engine) NumEdges() int64 { return e.numEdges.Load() }

// Batches returns the number of update batches applied: with P = 1 the
// CPLDS sub-batches (an insertion and a deletion count as two, as in the
// paper's model), with P > 1 the coalesced rounds summed across shards.
func (e *Engine) Batches() uint64 {
	var total uint64
	for _, s := range e.shards {
		total += s.batches.Load()
	}
	return total
}

// Epoch returns the cross-shard epoch: the total number of CPLDS batches
// committed across all shards, advanced as the scheduler's coalesced
// rounds commit on their shards — i.e. exactly at batch boundaries.
//
// A sum labels a cut unambiguously for the epochs reported by the pinned
// read protocols. The per-shard committed counts form one monotone history
// in which commits are totally ordered, and a pinned read certifies a
// count vector that was stable across its whole collection window — a
// vector of that history. Two stable vectors can never be componentwise
// incomparable (each reader's stable window would have to both precede
// and follow the other's, via the shard each disagrees on), so equal sums
// imply equal vectors, i.e. the identical committed state. A bare Epoch()
// call, by contrast, reads the components at staggered instants; it is the
// right tool for stats and for pinning a fresh View, but only epochs
// returned by ReadPinned/ReadManyPinned/ReadAllPinned carry the
// same-epoch-same-state guarantee. Safe to call at any time; one atomic
// load per shard.
func (e *Engine) Epoch() uint64 {
	var sum uint64
	for _, s := range e.shards {
		sum += s.c.Epoch()
	}
	return sum
}

// ShardOf returns the shard owning vertex v. Fibonacci (multiplicative)
// hashing decorrelates ownership from vertex-id locality so that id-ordered
// workloads still spread across shards; the high half of the product is
// used because the low bits of v*K are not mixed (taking v*K mod a
// power-of-two p would degenerate to v mod p).
func (e *Engine) ShardOf(v uint32) int {
	if e.p == 1 {
		return 0
	}
	h := (uint64(v) + 1) * 11400714819323198485
	return int((h >> 32) % uint64(e.p))
}

// --- reads (lock-free, routed to the owning shard) ---

// Read returns the linearizable coreness estimate of v from its owning
// shard. Lock-free; safe concurrently with updates.
func (e *Engine) Read(v uint32) float64 { return e.shards[e.ShardOf(v)].c.Read(v) }

// ReadNonSync returns the non-linearizable instantaneous estimate of v.
func (e *Engine) ReadNonSync(v uint32) float64 { return e.shards[e.ShardOf(v)].c.ReadNonSync(v) }

// ReadSync returns the blocking (SyncReads baseline) estimate of v: it
// waits for the owning shard's in-flight batch, if any.
func (e *Engine) ReadSync(v uint32) float64 { return e.shards[e.ShardOf(v)].c.ReadSync(v) }

// --- epoch-pinned reads (consistent cross-shard cuts) ---

// pinnedAttempts bounds the optimistic retries of a cross-shard pinned
// multi-read before it degrades to the blocking all-gates path; see the
// CPLDS constant of the same name.
const pinnedAttempts = 8

// ReadPinned returns v's linearizable estimate together with the global
// epoch of a committed cut the value belongs to. Lock-free in the common
// case; safe concurrently with updates.
func (e *Engine) ReadPinned(v uint32) (float64, uint64) {
	if e.p == 1 {
		return e.shards[0].c.ReadPinned(v)
	}
	sc := e.shards[e.ShardOf(v)].c
	for attempt := 0; attempt < pinnedAttempts; attempt++ {
		s1 := sc.CommitSeq()
		if s1&1 != 0 {
			continue
		}
		est := sc.Read(v)
		// Read the other shards' committed epochs BEFORE re-validating the
		// owning shard's sequence, so every component load falls inside the
		// window where the owning component is provably stable. The commit
		// history's cuts with this sum then all carry the owning component
		// at s1/2 (the history's cuts inside the window bracket the label,
		// and none of them bumps the owning shard), so the label is
		// consistent with the value: a pinned multi-read reporting the same
		// epoch serves the same value for v.
		epoch := s1 >> 1
		for _, s := range e.shards {
			if s.c != sc {
				epoch += s.c.Epoch()
			}
		}
		if sc.CommitSeq() != s1 {
			continue
		}
		return est, epoch
	}
	// Blocking fallback: hold every shard's batch gate in read mode so no
	// commit can move, and read value and epoch from the frozen cut.
	// (Summing unpinned components after a shard-local pinned read would
	// not do: the owning shard could commit again before the other
	// components are read, mislabeling the value's cut.)
	for _, s := range e.shards {
		s.c.GateRLock()
	}
	est := sc.ReadNonSync(v)
	epoch := e.Epoch()
	for _, s := range e.shards {
		s.c.GateRUnlock()
	}
	return est, epoch
}

// readPinned runs collect against a validated cross-shard cut and returns
// the cut's global epoch. Optimistic protocol: record every shard's commit
// sequence (retrying while any unmark phase is in flight), collect, and
// validate that no sequence changed; a failed validation implies a batch
// committed somewhere — update progress — and the collection restarts.
// After pinnedAttempts failures it falls back to holding every shard's
// batch gate in read mode, which blocks all commits (and only commits:
// writers never hold one gate while waiting for another, so the staggered
// acquisition cannot deadlock) and collects from the frozen cut via
// collectQuiescent.
func (e *Engine) readPinned(collect, collectQuiescent func()) uint64 {
	seqs := make([]uint64, e.p)
	for attempt := 0; attempt < pinnedAttempts; attempt++ {
		var epoch uint64
		stable := true
		for i, s := range e.shards {
			q := s.c.CommitSeq()
			if q&1 != 0 {
				stable = false
				break
			}
			seqs[i] = q
			epoch += q >> 1
		}
		if !stable {
			continue
		}
		collect()
		for i, s := range e.shards {
			if s.c.CommitSeq() != seqs[i] {
				stable = false
				break
			}
		}
		if stable {
			return epoch
		}
	}
	for _, s := range e.shards {
		s.c.GateRLock()
	}
	collectQuiescent()
	epoch := e.Epoch()
	for _, s := range e.shards {
		s.c.GateRUnlock()
	}
	return epoch
}

// ReadManyPinned fills out[i] with the linearizable estimate of vs[i] such
// that every value belongs to the single committed cross-shard cut
// identified by the returned epoch. len(out) must equal len(vs). Safe
// concurrently with updates; lock-free in the common case.
func (e *Engine) ReadManyPinned(vs []uint32, out []float64) uint64 {
	if e.p == 1 {
		return e.shards[0].c.ReadManyPinned(vs, out)
	}
	return e.readPinned(
		func() {
			for i, v := range vs {
				out[i] = e.Read(v)
			}
		},
		func() {
			for i, v := range vs {
				out[i] = e.ReadNonSync(v) // quiescent under the gates
			}
		})
}

// ReadAllPinned fills out[v] with every vertex's linearizable estimate from
// one committed cross-shard cut and returns its epoch. len(out) must be
// NumVertices().
func (e *Engine) ReadAllPinned(out []float64) uint64 {
	if e.p == 1 {
		return e.shards[0].c.ReadAllPinned(out)
	}
	return e.readPinned(
		func() {
			for v := range out {
				out[v] = e.Read(uint32(v))
			}
		},
		func() {
			for v := range out {
				out[v] = e.ReadNonSync(uint32(v))
			}
		})
}

// --- retained (multi-version) reads across shards ---

// SetRetainedEpochs configures multi-version retention: the n most recent
// retired cross-shard epochs stay exactly readable through the *At read
// protocols (pins can extend the window). Each shard's CPLDS retains n
// local epoch deltas — one global commit advances exactly one shard, so n
// local deltas per shard always cover any retained global cut — and, for
// p > 1, the vector log is rebuilt to keep the per-shard commit vectors of
// n retired global epochs. n <= 0 disables retention. Quiescent use only.
func (e *Engine) SetRetainedEpochs(n int) {
	e.retained = max(n, 0)
	for _, s := range e.shards {
		s.c.SetRetainedEpochs(e.retained)
	}
	if e.p > 1 {
		e.vlog = mvcc.NewVectorLog(e.shardEpochs(), e.retained)
	}
}

// shardEpochs returns every shard's local committed epoch.
func (e *Engine) shardEpochs() []uint64 {
	epochs := make([]uint64, e.p)
	for si, s := range e.shards {
		epochs[si] = s.c.Epoch()
	}
	return epochs
}

// commit is every shard's commit hook. With p > 1 it publishes the commit
// under the vector log's lock, which assigns the commit its global epoch;
// with p == 1 the local epoch is the global one. If a subscriber is
// attached it then turns the delta's moves into feed events, still inside
// the publication order, so the hub receives epochs in increasing order,
// each after it became readable. Mirrored cut edges make a shard's CPLDS
// move vertices it does not own; reads route to the owner shard, so only
// owned vertices' moves are coreness changes.
func (e *Engine) commit(s *shardState, d *mvcc.Delta, publish func()) {
	emit := func(epoch uint64) {
		publish()
		if !e.feedActive() {
			return
		}
		buf := s.events[:0]
		for _, m := range d.Moves {
			if e.ShardOf(m.V) == s.idx {
				buf = append(buf, feed.Event{Epoch: epoch, Vertex: m.V,
					OldCore: s.c.S.EstimateFromLevel(m.Old), NewCore: s.c.S.EstimateFromLevel(m.New)})
			}
		}
		s.events = buf
		if len(buf) > 0 {
			e.hub.Publish(epoch, buf)
		}
	}
	if e.p == 1 {
		emit(d.Epoch)
	} else {
		e.vlog.Commit(s.idx, emit)
	}
}

// feedActive reports whether a change-feed subscriber is attached. It is
// every shard's commit-hook activity predicate.
func (e *Engine) feedActive() bool { return e.hub != nil && e.hub.Active() }

// SetEventHub attaches the change-feed hub: after every shard commit, the
// batch's coreness transitions are published to h stamped with the
// cross-shard epoch of that commit (see commit). When no subscriber is
// attached the per-batch cost is two atomic loads. nil detaches.
// Quiescent use only.
func (e *Engine) SetEventHub(h *feed.Hub) { e.hub = h }

// RetainedEpochs returns the configured retention depth (0 = disabled).
func (e *Engine) RetainedEpochs() int { return e.retained }

// OldestReadableEpoch returns the oldest global epoch the *At protocols can
// still serve (the current epoch when retention is disabled).
func (e *Engine) OldestReadableEpoch() uint64 {
	if e.p == 1 {
		return e.shards[0].c.OldestReadableEpoch()
	}
	return e.vlog.OldestReadable()
}

// CheckEpoch reports whether the global epoch is currently servable,
// failing with the typed mvcc evicted/future errors otherwise.
func (e *Engine) CheckEpoch(epoch uint64) error {
	if e.p == 1 {
		return e.shards[0].c.CheckEpoch(epoch)
	}
	return e.vlog.Check(epoch)
}

// globalizeEvicted rewrites a shard-local eviction error in terms of the
// requested global epoch (local epoch numbers would only confuse callers);
// other errors pass through unchanged.
func (e *Engine) globalizeEvicted(err error, epoch uint64) error {
	if err != nil && errors.Is(err, mvcc.ErrEvicted) {
		return &mvcc.EvictedEpochError{Epoch: epoch, OldestReadable: e.OldestReadableEpoch()}
	}
	return err
}

// ReadManyAt fills out[i] with the estimate vs[i] had at the given
// committed global epoch — even a retired one, as long as it is retained
// (or pinned). The global epoch is resolved to its per-shard commit vector
// and every shard reconstructs its vertices at its own component, so the
// result is one consistent cross-shard cut, deterministic for a given
// epoch. len(out) must equal len(vs). Safe concurrently with updates.
func (e *Engine) ReadManyAt(vs []uint32, out []float64, epoch uint64) error {
	if e.p == 1 {
		return e.shards[0].c.ReadManyAt(vs, out, epoch)
	}
	vec := make([]uint64, e.p)
	if err := e.vlog.VectorAt(epoch, vec); err != nil {
		return err
	}
	perVert := make([][]uint32, e.p)
	perIdx := make([][]int, e.p)
	for i, v := range vs {
		si := e.ShardOf(v)
		perVert[si] = append(perVert[si], v)
		perIdx[si] = append(perIdx[si], i)
	}
	for si, svs := range perVert {
		if len(svs) == 0 {
			continue
		}
		sout := make([]float64, len(svs))
		if err := e.shards[si].c.ReadManyAt(svs, sout, vec[si]); err != nil {
			return e.globalizeEvicted(err, epoch)
		}
		for j, i := range perIdx[si] {
			out[i] = sout[j]
		}
	}
	return nil
}

// ReadAllAt fills out[v] with every vertex's estimate at the given
// committed global epoch (see ReadManyAt). len(out) must be NumVertices().
func (e *Engine) ReadAllAt(out []float64, epoch uint64) error {
	if e.p == 1 {
		return e.shards[0].c.ReadAllAt(out, epoch)
	}
	vec := make([]uint64, e.p)
	if err := e.vlog.VectorAt(epoch, vec); err != nil {
		return err
	}
	tmp := make([]float64, e.n)
	for si, s := range e.shards {
		if err := s.c.ReadAllAt(tmp, vec[si]); err != nil {
			return e.globalizeEvicted(err, epoch)
		}
		for v := range out {
			if e.ShardOf(uint32(v)) == si {
				out[v] = tmp[v]
			}
		}
	}
	return nil
}

// PinEpoch keeps the global epoch readable — eviction will not cross it in
// the vector log or any shard's delta store — until a matching UnpinEpoch.
// Requires retention (SetRetainedEpochs).
func (e *Engine) PinEpoch(epoch uint64) error {
	if e.p == 1 {
		return e.shards[0].c.PinEpoch(epoch)
	}
	vec := make([]uint64, e.p)
	if err := e.vlog.Pin(epoch, vec); err != nil {
		return err
	}
	for si := range e.shards {
		if err := e.shards[si].c.PinEpoch(vec[si]); err != nil {
			// A racing commit evicted this shard's tail between the log pin
			// and the store pin; unwind and report the epoch as evicted.
			for sj := 0; sj < si; sj++ {
				e.shards[sj].c.UnpinEpoch(vec[sj])
			}
			e.vlog.Unpin(epoch, vec)
			return e.globalizeEvicted(err, epoch)
		}
	}
	return nil
}

// UnpinEpoch releases one PinEpoch of the global epoch.
func (e *Engine) UnpinEpoch(epoch uint64) {
	if e.p == 1 {
		e.shards[0].c.UnpinEpoch(epoch)
		return
	}
	vec := make([]uint64, e.p)
	if e.vlog.Unpin(epoch, vec) {
		for si := range e.shards {
			e.shards[si].c.UnpinEpoch(vec[si])
		}
	}
}

// --- update submission ---

// Insert submits a batch of insertions and returns the number of edges
// actually added. Safe for concurrent callers.
func (e *Engine) Insert(edges []graph.Edge) int {
	ins, _ := e.Apply(edges, nil)
	return ins
}

// Delete submits a batch of deletions and returns the number of edges
// actually removed. Safe for concurrent callers.
func (e *Engine) Delete(edges []graph.Edge) int {
	_, del := e.Apply(nil, edges)
	return del
}

// Apply submits a mixed batch and returns the number of edges this call
// actually inserted and deleted. Safe for concurrent callers. An all-empty
// submission commits no epoch.
//
// With P = 1 the insertions run as one CPLDS batch and then the deletions
// as another (see applyOne), so an edge in both is inserted and then
// deleted. With P > 1 a deletion of an edge overrides an insertion of the
// same edge within one call, and concurrent submissions to the same shard
// are coalesced into one CPLDS batch.
func (e *Engine) Apply(insertions, deletions []graph.Edge) (inserted, deleted int) {
	if len(insertions) == 0 && len(deletions) == 0 {
		return 0, 0
	}
	if e.p == 1 {
		s := e.shards[0]
		b := wal.Batch{Ins: insertions, Del: deletions, HasIns: len(insertions) > 0, HasDel: len(deletions) > 0}
		s.applyMu.Lock()
		defer s.applyMu.Unlock()
		inserted, deleted = e.applyOne(b)
		if e.batchLog != nil {
			b.Epoch = s.c.Epoch()
			e.batchLog(b)
		}
		return inserted, deleted
	}

	// Normalize and dedupe within the call: canonical form, in-range,
	// no self-loops; delete-after-insert of the same edge leaves a delete.
	ops := make(map[graph.Edge]opKind, len(insertions)+len(deletions))
	n := uint32(e.n)
	addAll := func(edges []graph.Edge, k opKind) {
		for _, ed := range edges {
			if ed.IsSelfLoop() || ed.U >= n || ed.V >= n {
				continue
			}
			ops[ed.Canon()] = k
		}
	}
	addAll(insertions, opInsert)
	addAll(deletions, opDelete)
	if len(ops) == 0 {
		return 0, 0
	}

	// Split into per-shard sub-batches with cut-edge mirroring.
	perShard := make(map[int][]entry, e.p)
	for ed, k := range ops {
		su, sv := e.ShardOf(ed.U), e.ShardOf(ed.V)
		perShard[su] = append(perShard[su], entry{e: ed, kind: k, primary: true})
		if sv != su {
			perShard[sv] = append(perShard[sv], entry{e: ed, kind: k})
		}
	}
	op := &pendingOp{}
	subs := make(map[int]*subOp, len(perShard))

	// Enqueue atomically across shards so every shard queue observes
	// submissions in the same global order (mirror convergence).
	e.submitMu.Lock()
	for si, entries := range perShard {
		sub := &subOp{entries: entries, op: op}
		subs[si] = sub
		s := e.shards[si]
		s.qmu.Lock()
		s.queue = append(s.queue, sub)
		s.qmu.Unlock()
	}
	e.submitMu.Unlock()

	// Flush the touched shards in parallel. Each flush loops until this
	// call's sub-batch has been applied — by us or by whichever caller
	// currently holds the shard's combining lock.
	thunks := make([]func(), 0, len(subs))
	for si, sub := range subs {
		s, sub := e.shards[si], sub
		thunks = append(thunks, func() {
			for !sub.done.Load() {
				s.applyMu.Lock()
				s.drainAndApplyLocked(e)
				s.applyMu.Unlock()
			}
		})
	}
	parallel.Do(thunks...)
	return int(op.inserted.Load()), int(op.deleted.Load())
}

// applyOne applies one round to the single shard of a P = 1 engine: the
// insertion sub-batch if b.HasIns, then the deletion sub-batch if b.HasDel,
// each one CPLDS batch committing one epoch. No edge is mirrored, so the
// CPLDS's applied counts are every counter's delta; the CPLDS itself drops
// self-loops, out-of-range endpoints and duplicates. Live rounds (Apply)
// and replayed ones (ApplyLogged) both run here, so recovered and
// replicated counters equal the live ones. Caller holds applyMu or is the
// single-threaded recovery.
func (e *Engine) applyOne(b wal.Batch) (inserted, deleted int) {
	s := e.shards[0]
	if b.HasIns {
		inserted = s.c.InsertBatch(b.Ins)
		s.batches.Add(1)
	}
	if b.HasDel {
		deleted = s.c.DeleteBatch(b.Del)
		s.batches.Add(1)
	}
	s.inserted.Add(int64(inserted))
	s.deleted.Add(int64(deleted))
	net := int64(inserted - deleted)
	s.localEdges.Add(net)
	s.primaryEdges.Add(net)
	e.numEdges.Add(net)
	return inserted, deleted
}

// drainAndApplyLocked drains the shard's queue, coalesces the drained
// sub-batches into one insert batch and one delete batch (latest
// submission wins per edge), applies them to the shard's CPLDS, and
// completes the drained sub-ops. Caller holds s.applyMu.
func (s *shardState) drainAndApplyLocked(e *Engine) {
	s.qmu.Lock()
	subs := s.queue
	s.queue = nil
	s.qmu.Unlock()
	if len(subs) == 0 {
		return
	}

	// Coalesce: the queue is in global submission order, so iterating in
	// order and overwriting implements latest-submission-wins.
	type winner struct {
		ent entry
		sub *subOp
	}
	final := make(map[graph.Edge]winner, len(subs[0].entries))
	for _, sub := range subs {
		for _, ent := range sub.entries {
			final[ent.e] = winner{ent: ent, sub: sub}
		}
	}

	var ins, del []graph.Edge
	g := s.c.Graph() // quiescent: we are this shard's only updater
	for ed, w := range final {
		present := g.HasEdge(ed.U, ed.V)
		if w.ent.kind == opInsert {
			ins = append(ins, ed)
			if w.ent.primary && !present {
				w.sub.op.inserted.Add(1)
				e.numEdges.Add(1)
				s.primaryEdges.Add(1)
			}
		} else {
			del = append(del, ed)
			if w.ent.primary && present {
				w.sub.op.deleted.Add(1)
				e.numEdges.Add(-1)
				s.primaryEdges.Add(-1)
			}
		}
	}
	if len(ins) > 0 {
		applied := int64(s.c.InsertBatch(ins))
		s.inserted.Add(applied)
		s.localEdges.Add(applied)
	}
	if len(del) > 0 {
		applied := int64(s.c.DeleteBatch(del))
		s.deleted.Add(applied)
		s.localEdges.Add(-applied)
	}
	s.batches.Add(1)
	// Log the committed round before acknowledging the submissions, so a
	// caller's return implies its batch is in the log (durable, under the
	// fsync-always policy). The slices alias this round's buffers; the
	// logger serializes them before returning.
	if e.batchLog != nil {
		e.batchLog(wal.Batch{
			Shard:  s.idx,
			Epoch:  s.c.Epoch(),
			Ins:    ins,
			Del:    del,
			HasIns: len(ins) > 0,
			HasDel: len(del) > 0,
		})
	}
	for _, sub := range subs {
		sub.done.Store(true)
	}
}

// Stats is a point-in-time snapshot of one shard's load — the observability
// surface shard rebalancing will be driven by.
type Stats struct {
	Shard         int    `json:"shard"`
	OwnedVertices int    `json:"owned_vertices"` // vertices hashed to this shard
	PrimaryEdges  int64  `json:"primary_edges"`  // distinct global edges it owns
	LocalEdges    int64  `json:"local_edges"`    // edges in its subgraph (incl. mirrored cut edges)
	Batches       uint64 `json:"batches"`        // update batches applied (see Engine.Batches)
	Inserted      int64  `json:"edges_inserted"` // cumulative edges applied locally
	Deleted       int64  `json:"edges_deleted"`
}

// Stats returns per-shard load statistics. It is safe to call concurrently
// with updates and reads; counters are point-in-time atomic loads.
func (e *Engine) Stats() []Stats {
	out := make([]Stats, e.p)
	for si, s := range e.shards {
		out[si] = Stats{
			Shard:         si,
			OwnedVertices: e.owned[si],
			PrimaryEdges:  s.primaryEdges.Load(),
			LocalEdges:    s.localEdges.Load(),
			Batches:       s.batches.Load(),
			Inserted:      s.inserted.Load(),
			Deleted:       s.deleted.Load(),
		}
	}
	return out
}

// --- quiescent inspection ---

// Degree returns v's degree in the global graph (equal to its degree in
// its owning shard's subgraph). Quiescent use only.
func (e *Engine) Degree(v uint32) int {
	return e.shards[e.ShardOf(v)].c.Graph().Degree(v)
}

// IncidentEdges returns the edges incident to v (from its owning shard,
// which holds all of them). Quiescent use only: it iterates the shard's
// adjacency maps, which concurrent update submissions mutate.
func (e *Engine) IncidentEdges(v uint32) []graph.Edge {
	var out []graph.Edge
	e.shards[e.ShardOf(v)].c.Graph().Neighbors(v, func(w uint32) bool {
		out = append(out, graph.Edge{U: v, V: w})
		return true
	})
	return out
}

// GlobalEdges returns every distinct edge of the global graph in canonical
// order, reassembled from the shards' primary copies. Quiescent use only.
func (e *Engine) GlobalEdges() []graph.Edge {
	var out []graph.Edge
	for si, s := range e.shards {
		for _, ed := range s.c.Graph().Edges() {
			if e.ShardOf(ed.U) == si {
				out = append(out, ed)
			}
		}
	}
	parallel.Sort(out, func(a, b graph.Edge) bool {
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	return out
}

// Snapshot builds a CSR snapshot of the global graph. Quiescent use only.
func (e *Engine) Snapshot() *graph.CSR {
	if e.p == 1 {
		return e.shards[0].c.Graph().Snapshot()
	}
	return graph.CSRFromEdges(e.n, e.GlobalEdges())
}

// ExactCoreness computes exact global coreness by static parallel peeling
// of the reassembled global graph. Quiescent use only.
func (e *Engine) ExactCoreness() []int32 { return exact.Parallel(e.Snapshot()) }

// LocalGraph exposes shard s's local subgraph. Quiescent use only;
// intended for tests and diagnostics.
func (e *Engine) LocalGraph(s int) *graph.Dynamic { return e.shards[s].c.Graph() }

// LocalCPLDS exposes shard s's CPLDS. Intended for tests.
func (e *Engine) LocalCPLDS(s int) *cplds.CPLDS { return e.shards[s].c }

// CheckInvariants verifies the level-structure invariants of every shard
// and the cross-shard mirroring invariants: mirrored copies of each cut
// edge agree, each shard holds exactly the edges incident to its owned
// vertices, and the global edge counter matches. Quiescent use only.
func (e *Engine) CheckInvariants() error {
	for si, s := range e.shards {
		if err := s.c.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	var count int64
	for si, s := range e.shards {
		var localPrimary, localTotal int64
		for _, ed := range s.c.Graph().Edges() {
			su, sv := e.ShardOf(ed.U), e.ShardOf(ed.V)
			if su != si && sv != si {
				return fmt.Errorf("shard %d holds foreign edge (%d,%d)", si, ed.U, ed.V)
			}
			if su != sv {
				other := su
				if si == su {
					other = sv
				}
				if !e.shards[other].c.Graph().HasEdge(ed.U, ed.V) {
					return fmt.Errorf("cut edge (%d,%d) present in shard %d, missing in shard %d",
						ed.U, ed.V, si, other)
				}
			}
			if su == si {
				count++
				localPrimary++
			}
			localTotal++
		}
		if got := s.primaryEdges.Load(); got != localPrimary {
			return fmt.Errorf("shard %d primary-edge stat drift: counted %d, recorded %d",
				si, localPrimary, got)
		}
		if got := s.localEdges.Load(); got != localTotal {
			return fmt.Errorf("shard %d local-edge stat drift: counted %d, recorded %d",
				si, localTotal, got)
		}
	}
	if got := e.numEdges.Load(); got != count {
		return fmt.Errorf("edge counter drift: counted %d, recorded %d", count, got)
	}
	if e.p > 1 {
		return e.vlog.CheckInvariants(e.shardEpochs())
	}
	return nil
}
