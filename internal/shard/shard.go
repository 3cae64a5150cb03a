// Package shard provides the repository's one k-core engine: vertices are
// hash-partitioned across P cplds.CPLDS instances, and update submissions
// are accepted from any number of goroutines. P = 1 is a single CPLDS
// behind a mutex; P > 1 adds cut-edge mirroring.
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
// concurrently. Each call holds the engine's one apply lock for its whole
// length, so concurrent calls apply one after another and are never merged.
// A call's edges are routed into one round per shard it touches (the whole
// call, as submitted, when P = 1), and the touched shards run their rounds
// in parallel. Every round, live or replayed from a log, is the paper's
// model: the insertion sub-batch, then the deletion sub-batch, each one
// CPLDS batch that commits one epoch on its shard if, and only if, it
// changed the shard's graph. An edge in both lists of a call is thus
// inserted and then deleted at every P, and the two mirror copies of a cut
// edge see the same sequence of sub-batches.
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

// shardState is one shard: a CPLDS over the local subgraph plus its load
// counters.
type shardState struct {
	c   *cplds.CPLDS
	idx int // this shard's index (for batch-log records)

	// events is the change-feed extraction arena, reused across commits and
	// only touched inside this shard's commit hook.
	events []feed.Event

	// Load counters, maintained atomically by the shard's commit hook
	// before each commit is published (see count), so that Stats can be
	// served concurrently with updates and a reader that sees an epoch sees
	// its counts.
	inserted     atomic.Int64 // edges applied to the local subgraph, total
	deleted      atomic.Int64
	localEdges   atomic.Int64 // edges currently in the local subgraph (incl. mirrors)
	primaryEdges atomic.Int64 // distinct global edges owned by this shard
}

// Engine is the CPLDS engine over P shards.
//
// Concurrency contract, for every P: Apply, Insert, Delete and RemoveVertex
// may be called from any number of goroutines; Read, ReadNonSync, ReadSync,
// the pinned and retained reads, NumEdges, Epoch and Stats from any
// goroutine at any time. Quiescent operations (Snapshot, GlobalEdges,
// Degree, ExactCoreness, CheckInvariants, LocalGraph) must not run
// concurrently with updates.
type Engine struct {
	n      int
	p      int
	params lds.Params
	shards []*shardState
	owned  []int // owned vertex count per shard (fixed by the hash)

	// applyMu is the one update lock: every update call and Quiesce hold it
	// for their whole length, which makes each shard's CPLDS single-updater.
	applyMu sync.Mutex
	rounds  []wal.Batch // per-shard rounds of the current call (P > 1), under applyMu

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

	// batchLog, when non-nil, receives one wal.Batch per committed round,
	// invoked under applyMu by the goroutine running that round (see
	// SetBatchLog). Installed before the engine serves traffic or under
	// Quiesce, so no synchronization beyond applyMu is needed on the read
	// side.
	batchLog func(wal.Batch)
}

// New returns an engine over n vertices partitioned across p shards
// (p < 1 is treated as 1).
func New(n, p int, params lds.Params) *Engine {
	if p < 1 {
		p = 1
	}
	e := &Engine{n: n, p: p, params: params, shards: make([]*shardState, p), rounds: make([]wal.Batch, p)}
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

// Epoch returns the cross-shard epoch: the total number of CPLDS batches
// committed across all shards, advanced as each sub-batch that changes its
// shard's graph commits there — i.e. exactly at batch boundaries.
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
// returned by ReadManyPinned/ReadAllPinned carry the same-epoch-same-state
// guarantee. Safe to call at any time; one atomic load per shard.
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

// readPinned runs collect against a validated cross-shard cut and returns
// the cut's global epoch: each attempt opens every shard's committed-cut
// read (cplds.CutBegin) in index order, collects once, and closes them all
// (CutEnd); it succeeds when every shard validates. A failed validation
// implies a batch committed somewhere — update progress — and the
// collection restarts. The last attempt holds every shard's batch gate in
// read mode, taken in index order, which blocks all commits (and only
// commits: writers never hold one gate while waiting for another, so the
// staggered acquisition cannot deadlock).
func (e *Engine) readPinned(collect func()) uint64 {
	var stack [4]uint64 // up to four shards read without allocating
	seqs := stack[:]
	if e.p > len(stack) {
		seqs = make([]uint64, e.p)
	}
	for attempt := 0; ; attempt++ {
		var epoch uint64
		for i, s := range e.shards {
			var local uint64
			seqs[i], local = s.c.CutBegin(attempt)
			epoch += local
		}
		collect()
		stable := true
		for i, s := range e.shards {
			stable = s.c.CutEnd(attempt, seqs[i]) && stable
		}
		if stable {
			return epoch
		}
	}
}

// ReadManyPinned fills out[i] with the linearizable estimate of vs[i] such
// that every value belongs to the single committed cross-shard cut
// identified by the returned epoch. len(out) must equal len(vs). Safe
// concurrently with updates; lock-free in the common case.
func (e *Engine) ReadManyPinned(vs []uint32, out []float64) uint64 {
	if e.p == 1 {
		return e.shards[0].c.ReadManyPinned(vs, out)
	}
	return e.readPinned(func() {
		for i, v := range vs {
			out[i] = e.Read(v)
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
	return e.readPinned(func() {
		for v := range out {
			out[v] = e.Read(uint32(v))
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
// owned vertices' moves are coreness changes. The edge counters take the
// batch (see count) before publish, so they never lag the epoch.
func (e *Engine) commit(s *shardState, d *mvcc.Delta, publish func()) {
	emit := func(epoch uint64) {
		e.count(s)
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

// count adds the committing batch to s's edge counters. At commit the
// local graph still holds the batch's count and directed copies: it grew
// by the edges an insertion batch applied and shrank by those a deletion
// batch removed, and of those the global graph changed by the ones s owns.
func (e *Engine) count(s *shardState) {
	applied := s.c.Graph().NumEdges() - s.localEdges.Load()
	owned := int64(e.ownedApplied(s, int(max(applied, -applied))))
	if applied > 0 {
		s.inserted.Add(applied)
	} else {
		s.deleted.Add(-applied)
		owned = -owned
	}
	s.localEdges.Add(applied)
	s.primaryEdges.Add(owned)
	e.numEdges.Add(owned)
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
	ins, _, _ := e.Apply(edges, nil)
	return ins
}

// Delete submits a batch of deletions and returns the number of edges
// actually removed. Safe for concurrent callers.
func (e *Engine) Delete(edges []graph.Edge) int {
	_, del, _ := e.Apply(nil, edges)
	return del
}

// Apply submits a mixed batch and returns the number of edges this call
// actually inserted into and deleted from the global graph, and the epoch
// committed when it finished: read before the update lock is released, so
// no later call has moved it. Safe for concurrent callers, which apply one
// after another.
//
// Every touched shard runs the call's insertions as one CPLDS batch and
// then its deletions as another (see applyRound), so an edge in both lists
// is inserted and then deleted, at every P. Only a sub-batch that changes
// its shard's graph commits an epoch: a call that changes nothing (empty
// lists, self-loops, out-of-range endpoints, present edges re-inserted,
// absent ones deleted) commits, logs and publishes nothing.
func (e *Engine) Apply(insertions, deletions []graph.Edge) (inserted, deleted int, epoch uint64) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	inserted, deleted = e.applyLocked(insertions, deletions)
	return inserted, deleted, e.Epoch()
}

// RemoveVertex deletes every edge incident to v in one call and returns the
// number removed. The edges are collected from v's owning shard, which
// holds all of them, under the same hold of applyMu as their deletion, so
// no concurrent update can slip between the two. Safe for concurrent
// callers.
func (e *Engine) RemoveVertex(v uint32) int {
	if int(v) >= e.n {
		return 0
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	var incident []graph.Edge
	e.shards[e.ShardOf(v)].c.Graph().Neighbors(v, func(w uint32) bool {
		incident = append(incident, graph.Edge{U: v, V: w})
		return true
	})
	_, deleted := e.applyLocked(nil, incident)
	return deleted
}

// applyLocked applies one update call: with P = 1 its lists, as submitted,
// are the one round; with P > 1 they are routed into one round per shard
// and the touched shards run in parallel. Each round that committed an
// epoch is logged (SetBatchLog) before the call returns. Caller holds
// applyMu.
func (e *Engine) applyLocked(insertions, deletions []graph.Edge) (inserted, deleted int) {
	if e.p == 1 {
		return e.applyLive(wal.Batch{Ins: insertions, Del: deletions})
	}
	e.route(insertions, deletions)
	var ins, del atomic.Int64
	var work []func()
	for si := range e.rounds {
		if b := e.rounds[si]; len(b.Ins)+len(b.Del) > 0 {
			work = append(work, func() {
				i, d := e.applyLive(b)
				ins.Add(int64(i))
				del.Add(int64(d))
			})
		}
	}
	parallel.Do(work...)
	return int(ins.Load()), int(del.Load())
}

// route splits a call's edges into e.rounds, one wal.Batch per shard, in
// submission order and as submitted: each edge goes to the shard of each
// endpoint, once when both agree, so a cut edge reaches both its shards.
// It filters nothing; each shard's graph drops what does not count. The
// rounds' edge buffers are reused across calls. Caller holds applyMu.
func (e *Engine) route(insertions, deletions []graph.Edge) {
	for si := range e.rounds {
		b := &e.rounds[si]
		*b = wal.Batch{Shard: si, Ins: b.Ins[:0], Del: b.Del[:0]}
	}
	for _, ed := range insertions {
		su, sv := e.ShardOf(ed.U), e.ShardOf(ed.V)
		e.rounds[su].Ins = append(e.rounds[su].Ins, ed)
		if sv != su {
			e.rounds[sv].Ins = append(e.rounds[sv].Ins, ed)
		}
	}
	for _, ed := range deletions {
		su, sv := e.ShardOf(ed.U), e.ShardOf(ed.V)
		e.rounds[su].Del = append(e.rounds[su].Del, ed)
		if sv != su {
			e.rounds[sv].Del = append(e.rounds[sv].Del, ed)
		}
	}
}

// applyLive runs one live round through applyRound and logs it if it moved
// the shard's epoch. The record aliases the round's buffers; the logger
// serializes it before returning, so a caller's return implies its batch
// is in the log (durable, under the fsync-always policy).
func (e *Engine) applyLive(b wal.Batch) (inserted, deleted int) {
	c := e.shards[b.Shard].c
	before := c.Epoch()
	inserted, deleted = e.applyRound(b)
	if b.Epoch = c.Epoch(); e.batchLog != nil && b.Epoch != before {
		e.batchLog(b)
	}
	return inserted, deleted
}

// applyRound applies one round to shard b.Shard: the insertion sub-batch,
// then the deletion sub-batch, each one CPLDS batch. The shard's graph
// alone decides which edges count (it drops self-loops, out-of-range
// endpoints, duplicates and no-op edges), and a sub-batch commits an epoch
// only if it changed the graph. It returns the edges the round inserted into
// and deleted from the global graph: the moves of the shard's owned-edge
// counter, which only the commit hook (see count) changes, so a mirrored
// cut edge counts once. Live rounds (Apply) and replayed ones (ApplyLogged)
// both run here, so recovered and replicated counters equal the live ones.
// Caller holds applyMu or is the single-threaded recovery.
func (e *Engine) applyRound(b wal.Batch) (inserted, deleted int) {
	s := e.shards[b.Shard]
	owned := s.primaryEdges.Load()
	if len(b.Ins) > 0 {
		s.c.InsertBatch(b.Ins)
	}
	mid := s.primaryEdges.Load()
	if len(b.Del) > 0 {
		s.c.DeleteBatch(b.Del)
	}
	return int(mid - owned), int(mid - s.primaryEdges.Load())
}

// ownedApplied returns how many of the applied edges of s's last CPLDS batch
// s owns, i.e. whose lower endpoint it owns: every one when P = 1, else a
// count over the canonical entries of the batch's directed copies.
func (e *Engine) ownedApplied(s *shardState, applied int) int {
	if e.p == 1 {
		return applied
	}
	owned := 0
	for _, ed := range s.c.Graph().LastBatchDirected() {
		if ed.U < ed.V && e.ShardOf(ed.U) == s.idx {
			owned++
		}
	}
	return owned
}

// Stats is a point-in-time snapshot of one shard's load — the observability
// surface shard rebalancing will be driven by.
type Stats struct {
	Shard         int    `json:"shard"`
	OwnedVertices int    `json:"owned_vertices"` // vertices hashed to this shard
	PrimaryEdges  int64  `json:"primary_edges"`  // distinct global edges it owns
	LocalEdges    int64  `json:"local_edges"`    // edges in its subgraph (incl. mirrored cut edges)
	Batches       uint64 `json:"batches"`        // CPLDS batches committed: the shard's local epoch
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
			Batches:       s.c.Epoch(),
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
