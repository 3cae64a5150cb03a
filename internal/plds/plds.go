// Package plds implements the Parallel Level Data Structure (PLDS) of Liu,
// Shi, Yu, Dhulipala and Shun (SPAA 2022): a parallel batch-dynamic version
// of the LDS that processes batches of edge insertions or deletions with
// level-synchronous parallel vertex moves.
//
// During an insertion batch, levels are visited in increasing order, and
// every vertex at the current level l that violates Invariant 1 moves up;
// each level is left for good once processed. The paper's sweep raises a
// violator one level per round, so a neighbourhood that climbs together
// steps through a group's levels one round at a time. Here a round raises
// the violators and the vertices rising with them straight to their
// targets. It takes the rising set C: the round's violators M, plus every
// vertex w standing in (l, h), h the first level of the next group, whose
// up count plus its neighbours in C below it exceed UpperBound(level(w)) —
// the vertices that the members below them could lift. It gives each
// member u the target E(u): the lowest j >= from(u) at which at most
// UpperBound(j) of u's neighbours count at j or above (MaxLevel if there is
// none), where from(u) is l+1 for u in M and level(u) otherwise, a
// neighbour outside C counts at its level, and a neighbour w in C counts at
// E(w). Of the solutions it takes the greatest, which is unique (rise).
// Every member with E(u) > level(u) moves. h and the admission test only
// keep C small: the result is exact for any C that holds M.
//
//  1. Let L* be the levels the one-level sweep ends at. L* solves the same
//     equation with C = every vertex: a vertex stops at the first level at
//     which it does not violate, and once the sweep has processed a level
//     j, every vertex is on its final side of j — the ones above it only
//     rise, and the ones below it are never visited again.
//  2. Every solution on any such C is at most L*, provided the levels
//     before the round are. A neighbour outside C counts at its level,
//     which is at most its final one. Take the lowest level j at which the
//     sweep leaves some u in C below E(u). Every neighbour w in C with
//     E(w) >= j then has L*(w) >= j, so all that u counts at j stand at j
//     or above when the sweep is done, and u violates Invariant 1 at j,
//     where it stopped: a contradiction.
//
// So no vertex passes its level in L*. A mover is re-examined at its
// target like any vertex of that level, and the sweep ends with Invariant 1
// holding everywhere. Levels at most L* with no violator are L* itself:
// the lowest vertex u below its L* would still count, at its own level,
// every neighbour w with L*(w) >= level(u), since each of those stands at
// level(u) or above. The engine therefore ends at exactly the one-level
// sweep's levels, whatever the evaluation order and worker count.
//
// During a deletion batch, every vertex that violates Invariant 2 computes
// its desire level — the highest level below its current one where
// Invariant 2 holds — and levels are again visited in increasing order,
// moving every vertex whose desire level equals the current level down in
// parallel.
//
// The implementation exposes a Tracker interface with hooks at batch start,
// first vertex move, and batch end. The CPLDS (internal/cplds) uses these
// hooks to stamp each mover with its batch and pre-batch level and to
// commit the batch for its concurrent reads; the plain PLDS passes a nil
// tracker.
package plds

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/parallel"
)

// Kind distinguishes insertion batches from deletion batches.
type Kind int

const (
	// Insert marks a batch of edge insertions.
	Insert Kind = iota
	// Delete marks a batch of edge deletions.
	Delete
)

func (k Kind) String() string {
	if k == Insert {
		return "insert"
	}
	return "delete"
}

// Tracker receives callbacks from the batch update engine. Implementations
// must tolerate VertexMoving being invoked concurrently from multiple
// goroutines (each vertex exactly once per batch). A nil Tracker is valid.
type Tracker interface {
	// BatchStart is called once per batch before any level changes, with
	// the deduplicated canonical edges that will actually be applied.
	BatchStart(kind Kind, applied []graph.Edge)
	// VertexMoving is called the first time v moves during the current
	// batch, before its level changes; oldLevel is v's pre-batch level.
	VertexMoving(v uint32, oldLevel int32, kind Kind)
	// BatchEnd is called once per batch after all level changes.
	BatchEnd(kind Kind)
}

// decision is the re-validation outcome for one desire-bucket candidate in
// a deletion sweep: whether the vertex moves this round, and otherwise the
// bucket to requeue it into, offset by one so that zero means "drop".
type decision struct {
	move bool
	dl   int32
}

// levelBufPool holds the neighbour-level gather buffers of desireLevel,
// which runs concurrently from the deletion sweep's parallel loops; pooling
// keeps that hot path allocation-free without threading worker identities.
var levelBufPool = sync.Pool{New: func() any { b := make([]int32, 0, 1024); return &b }}

// growScratch returns buf resized to n, reallocating only when capacity is
// insufficient; contents are unspecified.
func growScratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/2)
	}
	return buf[:n]
}

// extraScratch returns n per-mover neighbour buffers truncated to zero
// length; the outer slice and the inner backing arrays are reused across
// rounds and batches (workers write back grown buffers by index).
func (p *PLDS) extraScratch(n int) [][]uint32 {
	for len(p.extraBufs) < n {
		p.extraBufs = append(p.extraBufs, nil)
	}
	extra := p.extraBufs[:n]
	for i := range extra {
		extra[i] = extra[i][:0]
	}
	return extra
}

// PLDS is the parallel batch-dynamic level data structure.
//
// Concurrency contract: InsertBatch and DeleteBatch must be called from a
// single updater goroutine (they parallelize internally). Level and
// Estimate use atomic loads and may be called at any time; however, without
// the CPLDS read protocol, values read concurrently with a batch are not
// linearizable (this is exactly the paper's NonSync baseline).
type PLDS struct {
	S       *lds.Structure
	g       *graph.Dynamic
	level   []atomic.Int32
	up      []atomic.Int32
	tracker Tracker

	batchID   int64          // current batch number (engine-internal)
	epoch     atomic.Uint64  // committed (fully applied) batches, published at batch end
	round     int64          // global level-iteration counter
	moveStamp []int64        // batch in which v last moved (first-move hook)
	claim     []atomic.Int64 // round-claim stamps for mover dedup
	queued    []atomic.Int64 // batch-stamp marking v as present in a desire bucket
	pos       []int32        // v's index in the rising set, if it is a member (rise)
	pull      []int32        // v's neighbours in the rising set below it, in round pullRound
	pullRound []int64

	dirty   [][]uint32 // per-level dirty lists (insertion phase), reused
	buckets [][]uint32 // per-level desire buckets (deletion phase), reused

	// Per-round scratch arenas, reused across rounds and batches by the
	// single updater so the steady-state batch hot path allocates nothing.
	moversBuf    []uint32
	targetsBuf   []int32
	oldLevelsBuf []int32
	decBuf       []decision
	extraBufs    [][]uint32
	seedBuf      []uint32
	firstBuf     []uint32
	riseBuf      []uint32 // the rising set C
	jumpBuf      []int32  // each member's target E
	pendingBuf   []bool   // member is on the worklist
	workBuf      []int32  // worklist of member indices
	levelsBuf    []int32  // one member's neighbour levels
	nbrBuf       []int32  // one member's neighbours in C, by index

	sweeps SweepStats
}

// SweepCounts are the cumulative work counters of one kind of sweep.
type SweepCounts struct {
	Rounds     int64 // level iterations in which at least one vertex moved
	Moves      int64 // level changes (one vertex, one round)
	FirstMoves int64 // vertices moved, counting each once per batch
}

// SweepStats holds the sweep counters since construction, by batch kind.
type SweepStats struct {
	Insert, Delete SweepCounts
}

// SweepStats returns the cumulative sweep counters. They are plain fields
// written by the updater: read them only while no batch is running.
func (p *PLDS) SweepStats() SweepStats { return p.sweeps }

// New returns an empty PLDS over n vertices.
func New(n int, p lds.Params, tracker Tracker) *PLDS {
	s := lds.NewStructure(n, p)
	return &PLDS{
		S:         s,
		g:         graph.NewDynamic(n),
		level:     make([]atomic.Int32, n),
		up:        make([]atomic.Int32, n),
		tracker:   tracker,
		moveStamp: make([]int64, n),
		claim:     make([]atomic.Int64, n),
		queued:    make([]atomic.Int64, n),
		pos:       make([]int32, n),
		pull:      make([]int32, n),
		pullRound: make([]int64, n),
		dirty:     make([][]uint32, s.K+1),
		buckets:   make([][]uint32, s.K+1),
	}
}

// NumVertices returns the number of vertices.
func (p *PLDS) NumVertices() int { return len(p.level) }

// Graph exposes the underlying dynamic graph. It must not be mutated by
// callers and must not be read concurrently with a running batch.
func (p *PLDS) Graph() *graph.Dynamic { return p.g }

// Level returns the current (live) level of v via an atomic load.
func (p *PLDS) Level(v uint32) int32 { return p.level[v].Load() }

// Estimate returns the coreness estimate computed from v's live level.
func (p *PLDS) Estimate(v uint32) float64 {
	return p.S.EstimateFromLevel(p.level[v].Load())
}

// countAtLeast returns |{w ∈ N(v) : level(w) >= x}|.
func (p *PLDS) countAtLeast(v uint32, x int32) int32 {
	var c int32
	p.g.Neighbors(v, func(w uint32) bool {
		if p.level[w].Load() >= x {
			c++
		}
		return true
	})
	return c
}

// violatesInv1 reports whether v breaks the degree upper bound.
func (p *PLDS) violatesInv1(v uint32) bool {
	lv := p.level[v].Load()
	if lv >= p.S.MaxLevel() {
		return false
	}
	return float64(p.up[v].Load()) > p.S.UpperBound(lv)
}

// violatesInv2 reports whether v breaks the degree lower bound.
func (p *PLDS) violatesInv2(v uint32) bool {
	lv := p.level[v].Load()
	if lv == 0 {
		return false
	}
	cnt := p.countAtLeast(v, lv-1)
	return float64(cnt) < p.S.LowerBound(lv)
}

// neighbourLevels appends to ls the current level of every neighbour of v.
// Sorted, these are all desireLevel needs: the number of neighbours at or
// above a level changes only at one of these values, and the bound it is
// tested against only at a group boundary, so it does not have to visit the
// levels in between.
func (p *PLDS) neighbourLevels(v uint32, ls []int32) []int32 {
	p.g.Neighbors(v, func(w uint32) bool {
		ls = append(ls, p.level[w].Load())
		return true
	})
	return ls
}

// lowestWithin returns the lowest level j >= from at which at most
// UpperBound(j) of the ascending levels ls are j or above, or MaxLevel.
func lowestWithin(s *lds.Structure, ls []int32, from int32) int32 {
	lpg, maxLevel := int32(s.LevelsPerGroup), s.MaxLevel()
	j := from
	below, _ := slices.BinarySearch(ls, j) // number of entries under j
	for j < maxLevel {
		ub := s.UpperBound(j)
		if float64(len(ls)-below) <= ub {
			break
		}
		// Within j's group the bound holds once all but ⌊ub⌋ entries are
		// below; the lowest level with that many below it is one past the
		// last of them.
		boundary := (j/lpg + 1) * lpg
		if next := ls[len(ls)-int(ub)-1] + 1; next < boundary {
			return next
		}
		j = min(boundary, maxLevel)
		below, _ = slices.BinarySearch(ls, j)
	}
	return j
}

// desireLevel returns the highest level d < level(v) at which v satisfies
// Invariant 2 (d = 0 always does). Only meaningful when v violates
// Invariant 2 at its current level.
func (p *PLDS) desireLevel(v uint32) int32 {
	lv := p.level[v].Load()
	if lv <= 1 {
		return 0
	}
	bufp := levelBufPool.Get().(*[]int32)
	ls := p.neighbourLevels(v, (*bufp)[:0])
	slices.Sort(ls)
	d := highestSupported(p.S, ls, lv-1)
	*bufp = ls
	levelBufPool.Put(bufp)
	return d
}

// highestSupported returns the highest level d <= from at which at least
// LowerBound(d) of the ascending levels ls are d-1 or above, or 0. It is
// lowestWithin mirrored: downwards, one step per group.
func highestSupported(s *lds.Structure, ls []int32, from int32) int32 {
	lpg := int32(s.LevelsPerGroup)
	for d := from; d >= 1; {
		// LowerBound(d) is that of the group d-1 lies in; within it the
		// bound holds for d-1 up to the ⌈lb⌉-th highest entry.
		groupStart := (d - 1) / lpg * lpg
		if lb := s.LowerBound(d); lb <= float64(len(ls)) {
			if c := min(d, ls[len(ls)-int(math.Ceil(lb))]+1); c > groupStart {
				return c
			}
		}
		d = groupStart
	}
	return 0
}

// batchStart opens a batch that changes the graph: the tracker's
// BatchStart, and so the CPLDS gate and its commit, run only for those.
func (p *PLDS) batchStart(kind Kind, applied []graph.Edge) {
	p.batchID++
	if p.tracker != nil {
		p.tracker.BatchStart(kind, applied)
	}
}

func (p *PLDS) batchEnd(kind Kind) {
	if p.tracker != nil {
		p.tracker.BatchEnd(kind)
	}
	p.epoch.Add(1)
}

// Epoch returns the number of committed update batches, each of which
// changed the graph: the epoch counter is published once per batch, after
// every level change of the batch has been applied (and after the
// tracker's BatchEnd hook has run). It is the
// plain-PLDS analogue of the CPLDS commit epoch — the CPLDS publishes its
// own commit sequence from its BatchEnd hook for consistent-cut validation
// and cross-checks the two counters' lockstep in CheckInvariants.
func (p *PLDS) Epoch() uint64 { return p.epoch.Load() }

// Restore resets a freshly constructed PLDS to a previously captured
// quiescent state: the graph, every vertex's level, and the committed
// epoch. The up counters are recomputed from the restored graph and
// levels (up is derived state: up[v] = |{w ∈ N(v): level(w) >= level(v)}|),
// and all batch-scoped scratch (stamps, dirty lists, arenas) stays at its
// fresh zero state, which the first post-restore batch initializes as
// usual. Quiescent use only; levels must satisfy the LDS invariants (they
// do whenever they were captured from a quiescent structure with the same
// parameters).
func (p *PLDS) Restore(g *graph.Dynamic, levels []int32, epoch uint64) {
	p.g = g
	for v, l := range levels {
		p.level[v].Store(l)
	}
	parallel.For(len(levels), func(v int) {
		p.up[v].Store(p.countAtLeast(uint32(v), levels[v]))
	})
	p.epoch.Store(epoch)
}

// rise solves one insertion round at level l (package comment). movers
// holds the round's claimed violators M. rise gathers the rising set C,
// finds every member's target E, claims for round the members outside M
// that rise above their own level, and returns all of the round's movers,
// M first, with their targets and old levels.
//
// E is the greatest solution: every member starts at MaxLevel, as its
// neighbours in C count it, and a member is evaluated again whenever the
// target of one of its neighbours in C falls below its own, until none
// changes. Targets only fall, and a fall from e0 to e1 changes a count only
// at levels in (e1, e0], so it cannot move a target at or below e1.
func (p *PLDS) rise(l int32, round int64, movers []uint32) ([]uint32, []int32, []int32) {
	lpg := int32(p.S.LevelsPerGroup)
	h := (l/lpg + 1) * lpg
	// C is a sparse set: w is a member iff pos[w] indexes w in set, so it
	// needs no clearing between rounds. Each member pulls its neighbours
	// above it; one joins once it would violate if all its pullers passed
	// it. Below that it stays put whatever they do, as up counts everyone
	// at or above it already.
	set := append(p.riseBuf[:0], movers...)
	for i, v := range set {
		p.pos[v] = int32(i)
	}
	for i := 0; i < len(set); i++ {
		lu := p.level[set[i]].Load()
		p.g.Neighbors(set[i], func(w uint32) bool {
			lw := p.level[w].Load()
			if lw <= lu || lw >= h {
				return true
			}
			if k := p.pos[w]; int(k) < len(set) && set[k] == w {
				return true
			}
			if p.pullRound[w] != round {
				p.pullRound[w], p.pull[w] = round, 0
			}
			p.pull[w]++
			if float64(p.up[w].Load()+p.pull[w]) > p.S.UpperBound(lw) {
				p.pos[w] = int32(len(set))
				set = append(set, w)
			}
			return true
		})
	}
	p.riseBuf = set
	n, m := len(set), len(movers)
	jump := growScratch(p.jumpBuf, n)
	pending := growScratch(p.pendingBuf, n)
	work := growScratch(p.workBuf, n)
	// The worklist is a ring of member indices, first in, first out, so
	// that each pass sees the falls of the pass before. (Last in, first out
	// re-evaluates a hub once per falling neighbour: on the cold start that
	// was 12 times the evaluations.) No more than n are ever pending.
	for i := range set {
		jump[i], pending[i], work[i] = p.S.MaxLevel(), true, int32(i)
	}
	ls, nbr := p.levelsBuf, p.nbrBuf
	for head, size := 0, n; size > 0; {
		i := work[head]
		head, size = (head+1)%n, size-1
		pending[i] = false
		u, from := set[i], l+1
		if int(i) >= m {
			from = p.level[u].Load()
		}
		ls, nbr = ls[:0], nbr[:0]
		p.g.Neighbors(u, func(w uint32) bool {
			lw := p.level[w].Load()
			if k := p.pos[w]; int(k) < n && set[k] == w {
				lw = jump[k]
				nbr = append(nbr, k)
			}
			if lw >= from {
				ls = append(ls, lw)
			}
			return true
		})
		e := from
		if float64(len(ls)) > p.S.UpperBound(from) {
			slices.Sort(ls)
			e = lowestWithin(p.S, ls, from)
		}
		if e == jump[i] {
			continue
		}
		jump[i] = e
		for _, k := range nbr {
			if !pending[k] && jump[k] > e {
				pending[k] = true
				work[(head+size)%n] = k
				size++
			}
		}
	}
	p.levelsBuf, p.nbrBuf, p.jumpBuf, p.pendingBuf, p.workBuf = ls, nbr, jump, pending, work
	for i := m; i < n; i++ {
		if u := set[i]; jump[i] > p.level[u].Load() {
			p.claim[u].Store(round)
			movers = append(movers, u)
		}
	}
	targets := growScratch(p.targetsBuf, len(movers))
	old := growScratch(p.oldLevelsBuf, len(movers))
	for i, v := range movers {
		targets[i], old[i] = jump[p.pos[v]], p.level[v].Load()
	}
	p.targetsBuf, p.oldLevelsBuf = targets, old
	return movers, targets, old
}

// noteGrain is the first-mover count below which noteMoves calls the tracker
// inline: the sequential loop avoids allocating a dispatch closure for the
// (typical) small rounds, while large cascades still fan out.
const noteGrain = 512

// noteMoves counts one round of movers into c and invokes the tracker's
// VertexMoving hook for every mover that has not yet moved in this batch.
// movers must be non-empty and duplicate-free.
func (p *PLDS) noteMoves(c *SweepCounts, movers []uint32, kind Kind) {
	first := p.firstBuf[:0]
	for _, v := range movers {
		if p.moveStamp[v] != p.batchID {
			p.moveStamp[v] = p.batchID
			first = append(first, v)
		}
	}
	p.firstBuf = first
	c.Rounds++
	c.Moves += int64(len(movers))
	c.FirstMoves += int64(len(first))
	if p.tracker == nil {
		return
	}
	if len(first) < noteGrain {
		for _, v := range first {
			p.tracker.VertexMoving(v, p.level[v].Load(), kind)
		}
		return
	}
	parallel.For(len(first), func(i int) {
		p.tracker.VertexMoving(first[i], p.level[first[i]].Load(), kind)
	})
}

// InsertBatch inserts a batch of edges and restores the invariants. It
// returns the number of edges actually applied (after dedup/filtering). A
// batch that applies none is not a batch: it commits no epoch.
func (p *PLDS) InsertBatch(edges []graph.Edge) int {
	fresh := p.g.InsertEdges(edges)
	if len(fresh) == 0 {
		return 0
	}
	p.batchStart(Insert, fresh)
	defer p.batchEnd(Insert)
	// Adjust up counters for the new edges.
	parallel.For(len(fresh), func(i int) {
		e := fresh[i]
		lu, lv := p.level[e.U].Load(), p.level[e.V].Load()
		if lv >= lu {
			p.up[e.U].Add(1)
		}
		if lu >= lv {
			p.up[e.V].Add(1)
		}
	})
	// Seed dirty lists with the endpoints at their current levels.
	maxDirty := int32(0)
	for _, e := range fresh {
		for _, v := range [2]uint32{e.U, e.V} {
			lv := p.level[v].Load()
			p.dirty[lv] = append(p.dirty[lv], v)
			if lv > maxDirty {
				maxDirty = lv
			}
		}
	}
	// Level-synchronous upward sweep. Candidate lists are truncated, not
	// nilled, so their backing arrays are reused across rounds and batches
	// (appends during a round only ever target levels above l, so the
	// drained list's backing is never overwritten while cand is live).
	//
	// The phase bodies are hoisted out of the round loop and capture the
	// cur* locals by reference: one closure allocation per batch instead of
	// four per round, which matters because sweeps run many small rounds.
	var (
		curRound   int64
		curMovers  []uint32
		curTargets []int32
		curOld     []int32
		curExtra   [][]uint32
	)
	// Before any level changes, rise finds the round's movers and their
	// targets (package comment), so targets are deterministic; then all
	// movers are raised.
	phaseRaise := func(i int) { p.level[curMovers[i]].Store(curTargets[i]) }
	// Phase B: recompute movers' up counters against settled levels.
	phaseB := func(i int) {
		v := curMovers[i]
		p.up[v].Store(p.countAtLeast(v, curTargets[i]))
	}
	// Phase C: a non-mover neighbour w gains an up-neighbour if v rose
	// past it: old(v) < level(w) <= target(v). Mark such neighbours dirty
	// at their own level; movers are recognized by their round claim and
	// were fully recomputed in Phase B.
	phaseC := func(i int) {
		v := curMovers[i]
		t, old, round := curTargets[i], curOld[i], curRound
		local := curExtra[i]
		p.g.Neighbors(v, func(w uint32) bool {
			lw := p.level[w].Load()
			if lw > old && lw <= t && p.claim[w].Load() != round {
				p.up[w].Add(1)
				local = append(local, w)
			}
			return true
		})
		curExtra[i] = local
	}
	for l := int32(0); l <= maxDirty && l < p.S.MaxLevel(); l++ {
		cand := p.dirty[l]
		if len(cand) == 0 {
			continue
		}
		p.dirty[l] = cand[:0]
		p.round++
		round := p.round
		// Movers: at level l, violating Invariant 1, claimed exactly once.
		// The claim swap is a side effect, so this filter stays sequential;
		// the predicate is O(1) loads and the scan reuses the arena.
		movers := p.moversBuf[:0]
		for _, v := range cand {
			if p.level[v].Load() == l && p.violatesInv1(v) &&
				p.claim[v].Swap(round) != round {
				movers = append(movers, v)
			}
		}
		p.moversBuf = movers
		if len(movers) == 0 {
			continue
		}
		movers, curTargets, curOld = p.rise(l, round, movers)
		p.moversBuf = movers
		p.noteMoves(&p.sweeps.Insert, movers, Insert)
		curRound, curMovers = round, movers
		curExtra = p.extraScratch(len(movers))
		parallel.For(len(movers), phaseRaise)
		parallel.For(len(movers), phaseB)
		parallel.For(len(movers), phaseC)
		for i, v := range movers {
			t := curTargets[i]
			p.dirty[t] = append(p.dirty[t], v)
			if t > maxDirty {
				maxDirty = t
			}
		}
		for _, loc := range curExtra {
			for _, w := range loc {
				lw := p.level[w].Load()
				p.dirty[lw] = append(p.dirty[lw], w)
				if lw > maxDirty {
					maxDirty = lw
				}
			}
		}
	}
	// Vertices can be parked at MaxLevel, which the sweep never visits
	// (Invariant 1 cannot be violated there); drop them so stale entries
	// don't accumulate across batches.
	p.dirty[p.S.MaxLevel()] = p.dirty[p.S.MaxLevel()][:0]
	return len(fresh)
}

// DeleteBatch deletes a batch of edges and restores the invariants. It
// returns the number of edges actually removed; removing none commits no
// epoch.
func (p *PLDS) DeleteBatch(edges []graph.Edge) int {
	removed := p.g.DeleteEdges(edges)
	if len(removed) == 0 {
		return 0
	}
	p.batchStart(Delete, removed)
	defer p.batchEnd(Delete)
	// Adjust up counters for the removed edges.
	parallel.For(len(removed), func(i int) {
		e := removed[i]
		lu, lv := p.level[e.U].Load(), p.level[e.V].Load()
		if lv >= lu {
			p.up[e.U].Add(-1)
		}
		if lu >= lv {
			p.up[e.V].Add(-1)
		}
	})
	// Seed the desire buckets with violating endpoints.
	maxBucket := int32(-1)
	seed := p.seedBuf[:0]
	for _, e := range removed {
		seed = append(seed, e.U, e.V)
	}
	p.seedBuf = seed
	for _, v := range seed {
		if p.queued[v].Load() == p.batchID {
			continue
		}
		if !p.violatesInv2(v) {
			continue
		}
		p.queued[v].Store(p.batchID)
		dl := p.desireLevel(v)
		p.buckets[dl] = append(p.buckets[dl], v)
		if dl > maxBucket {
			maxBucket = dl
		}
	}
	// Upward sweep over desire levels. As in the insertion sweep, drained
	// bucket lists are truncated rather than nilled so their backing
	// arrays are reused; cand is only read before the phases run, so
	// re-appending into the drained bucket (possible via Phase C) is safe.
	// As in the insertion sweep, the parallel bodies are hoisted out of the
	// round loop and capture the cur* locals: one closure allocation per
	// batch instead of four per round.
	var (
		curTarget int32
		curCand   []uint32
		curDec    []decision
		curMovers []uint32
		curOld    []int32
		curExtra  [][]uint32
	)
	// Re-validate candidates: their desire level may have risen since
	// they were bucketed (it cannot drop to a processed level — a
	// property the PLDS paper proves; requeueing handles both
	// directions defensively).
	validate := func(i int) {
		v := curCand[i]
		if !p.violatesInv2(v) {
			p.queued[v].Store(0)
			curDec[i] = decision{}
			return
		}
		dl := p.desireLevel(v)
		if dl == curTarget {
			curDec[i] = decision{move: true, dl: dl}
		} else {
			curDec[i] = decision{move: false, dl: dl + 1} // +1 flags requeue
		}
	}
	// Phase A: record old levels, then drop all movers to the target.
	readOld := func(i int) { curOld[i] = p.level[curMovers[i]].Load() }
	phaseDrop := func(i int) { p.level[curMovers[i]].Store(curTarget) }
	// Phase B: recompute movers' up counters; movers satisfy their
	// desire level by construction, so they leave the queue.
	phaseB := func(i int) {
		v := curMovers[i]
		p.up[v].Store(p.countAtLeast(v, curTarget))
		p.queued[v].Store(0)
	}
	// Phase C: adjust neighbours above the target level. A neighbour w
	// loses an up-neighbour if target < level(w) <= old(v), and loses an
	// Invariant 2 neighbour if target+1 < level(w) <= old(v)+1.
	phaseC := func(i int) {
		v := curMovers[i]
		old := curOld[i]
		target := curTarget
		local := curExtra[i]
		p.g.Neighbors(v, func(w uint32) bool {
			lw := p.level[w].Load()
			if lw <= target {
				return true // movers and settled-below neighbours
			}
			if lw <= old {
				p.up[w].Add(-1)
			}
			if lw > target+1 && lw <= old+1 {
				local = append(local, w)
			}
			return true
		})
		curExtra[i] = local
	}
	for l := int32(0); l <= maxBucket; l++ {
		target := l
		cand := p.buckets[target]
		if len(cand) == 0 {
			continue
		}
		p.buckets[target] = cand[:0]
		p.decBuf = growScratch(p.decBuf, len(cand))
		curTarget, curCand, curDec = target, cand, p.decBuf
		dec := p.decBuf
		parallel.For(len(cand), validate)
		movers := p.moversBuf[:0]
		for i, d := range dec {
			switch {
			case d.move:
				movers = append(movers, cand[i])
			case d.dl > 0:
				dl := d.dl - 1
				p.buckets[dl] = append(p.buckets[dl], cand[i])
				if dl > maxBucket {
					maxBucket = dl
				}
				if dl < target && dl-1 < l {
					// Defensive: theory says this cannot happen; revisit.
					l = dl - 1
				}
			}
		}
		p.moversBuf = movers
		if len(movers) == 0 {
			continue
		}
		p.noteMoves(&p.sweeps.Delete, movers, Delete)
		p.oldLevelsBuf = growScratch(p.oldLevelsBuf, len(movers))
		curMovers, curOld = movers, p.oldLevelsBuf
		curExtra = p.extraScratch(len(movers))
		parallel.For(len(movers), readOld)
		parallel.For(len(movers), phaseDrop)
		parallel.For(len(movers), phaseB)
		parallel.For(len(movers), phaseC)
		// Enqueue affected neighbours that now violate Invariant 2.
		for _, loc := range curExtra {
			for _, w := range loc {
				if p.queued[w].Load() == p.batchID {
					continue
				}
				if !p.violatesInv2(w) {
					continue
				}
				p.queued[w].Store(p.batchID)
				dl := p.desireLevel(w)
				p.buckets[dl] = append(p.buckets[dl], w)
				if dl > maxBucket {
					maxBucket = dl
				}
				if dl <= target && dl-1 < l {
					// Defensive, like the requeue branch — and dl == target
					// must rewind too: the bucket being processed has
					// already been drained, so an entry landing in it now
					// would otherwise be stranded for the rest of the batch.
					l = dl - 1
				}
			}
		}
	}
	return len(removed)
}

// UpDegree returns |{w ∈ N(v) : level(w) >= level(v)}| — v's residual
// degree toward its own and higher levels. Invariant 1 bounds it by
// (2+3/λ)(1+δ)^(group(v)+1), i.e. O(approximate coreness of v).
func (p *PLDS) UpDegree(v uint32) int32 { return p.up[v].Load() }

// OrientedNeighbors visits v's out-neighbours in the dynamic low
// out-degree orientation induced by the level structure: each edge points
// from the endpoint at the lower (level, id) pair to the higher one. The
// out-degree of every vertex is at most UpDegree(v), which Invariant 1
// keeps within a constant factor of the vertex's coreness estimate — the
// "low out-degree orientation" application of the paper's §9, maintained
// dynamically with no extra work. Quiescent use only.
func (p *PLDS) OrientedNeighbors(v uint32, f func(w uint32) bool) {
	lv := p.level[v].Load()
	p.g.Neighbors(v, func(w uint32) bool {
		lw := p.level[w].Load()
		if lw > lv || (lw == lv && w > v) {
			return f(w)
		}
		return true
	})
}

// CheckInvariants verifies both LDS invariants and the cached up counters
// for every vertex. Must not run concurrently with a batch.
func (p *PLDS) CheckInvariants() error {
	return lds.CheckInvariants(p.S, p.g,
		func(v uint32) int32 { return p.level[v].Load() },
		func(v uint32) int32 { return p.up[v].Load() })
}
