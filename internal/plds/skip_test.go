package plds

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kcore/internal/exact"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
)

// stepwiseInsert is the reference the skip-ahead sweep must match level for
// level: the paper's level-synchronous insertion sweep, every violator up
// exactly one level per round, on plain slices with no cached counters. g
// already holds the batch; level holds the pre-batch levels and is updated
// in place. It returns the number of rounds that moved a vertex and the
// number of single-level moves.
func stepwiseInsert(s *lds.Structure, g *graph.Dynamic, level []int32, batch []graph.Edge) (rounds, moves int64) {
	dirty := map[int32][]uint32{}
	top := int32(0)
	for _, e := range batch {
		for _, v := range [2]uint32{e.U, e.V} {
			dirty[level[v]] = append(dirty[level[v]], v)
			top = max(top, level[v])
		}
	}
	for l := int32(0); l <= top && l < s.MaxLevel(); l++ {
		cand := dirty[l]
		delete(dirty, l)
		slices.Sort(cand)
		var movers []uint32
		for _, v := range slices.Compact(cand) {
			if level[v] == l && float64(refCountAtLeast(g, level, v, l)) > s.UpperBound(l) {
				movers = append(movers, v)
			}
		}
		if len(movers) == 0 {
			continue
		}
		for _, v := range movers {
			level[v] = l + 1
		}
		// A mover is examined again one level up, and so is every
		// neighbour already there: it just gained an up-neighbour.
		for _, v := range movers {
			dirty[l+1] = append(dirty[l+1], v)
			g.Neighbors(v, func(w uint32) bool {
				if level[w] == l+1 {
					dirty[l+1] = append(dirty[l+1], w)
				}
				return true
			})
		}
		top = max(top, l+1)
		rounds++
		moves += int64(len(movers))
	}
	return rounds, moves
}

func refCountAtLeast(g *graph.Dynamic, level []int32, v uint32, x int32) (c int32) {
	g.Neighbors(v, func(w uint32) bool {
		if level[w] >= x {
			c++
		}
		return true
	})
	return c
}

// stepwiseChecker runs every insertion batch through the engine and through
// stepwiseInsert, each from the engine's pre-batch levels, and fails on the
// first level or up counter that differs. ref accumulates what the
// reference sweep did, for comparison with the engine's SweepStats.
type stepwiseChecker struct {
	t          *testing.T
	p          *PLDS
	pre, level []int32
	ref        SweepCounts
}

func newStepwiseChecker(t *testing.T, n int) *stepwiseChecker {
	return &stepwiseChecker{t: t, p: New(n, defaultP(), nil), pre: make([]int32, n), level: make([]int32, n)}
}

func (c *stepwiseChecker) insert(batch []graph.Edge) {
	c.t.Helper()
	for v := range c.pre {
		c.pre[v] = c.p.Level(uint32(v))
	}
	copy(c.level, c.pre)
	c.p.InsertBatch(batch)
	rounds, moves := stepwiseInsert(c.p.S, c.p.Graph(), c.level, batch)
	c.ref.Rounds += rounds
	c.ref.Moves += moves
	for v, want := range c.level {
		if got := c.p.Level(uint32(v)); got != want {
			c.t.Fatalf("vertex %d: level %d, the stepwise sweep reaches %d (from %d)", v, got, want, c.pre[v])
		}
		if want != c.pre[v] {
			c.ref.FirstMoves++
		}
		if got, want := c.p.UpDegree(uint32(v)), refCountAtLeast(c.p.Graph(), c.level, uint32(v), want); got != want {
			c.t.Fatalf("vertex %d: up counter %d, the stepwise sweep's levels give %d", v, got, want)
		}
	}
	if got := c.p.SweepStats().Insert.FirstMoves; got != c.ref.FirstMoves {
		c.t.Fatalf("engine moved %d distinct vertices so far, the stepwise sweep %d", got, c.ref.FirstMoves)
	}
}

func (c *stepwiseChecker) delete(batch []graph.Edge) {
	c.t.Helper()
	c.p.DeleteBatch(batch)
	if err := c.p.CheckInvariants(); err != nil {
		c.t.Fatal(err)
	}
}

// TestSkipAheadMatchesStepwiseOnSlidingWindow is the benchmark's load shape
// (benchmark/inputs.go): a shuffled Chung–Lu pool used as a ring, half of it
// preloaded by insert-only batches, then a window sliding by k inserts and k
// deletes per batch. On it the skip-ahead sweep must also be what it is for:
// at most a quarter of the stepwise sweep's moves.
func TestSkipAheadMatchesStepwiseOnSlidingWindow(t *testing.T) {
	n, pool, live, preloadChunk := 30000, 180000, 90000, 10000
	seeds, slides := []int64{101, 102, 103}, 40
	if testing.Short() { // a fifth of the graph, for the race detector's sake
		n, pool, live, preloadChunk = n/5, pool/5, live/5, preloadChunk/5
		seeds, slides = seeds[:1], 8
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			ring := gen.Shuffle(gen.ChungLu(n, pool, 2.4, seed), seed+1)
			ring = append(ring, ring...)
			c := newStepwiseChecker(t, n)
			for _, b := range gen.Batches(ring[:live], preloadChunk) {
				c.insert(b)
			}
			engine, ref := c.p.SweepStats().Insert, c.ref
			t.Logf("preload: engine %d moves in %d rounds, stepwise %d in %d", engine.Moves, engine.Rounds, ref.Moves, ref.Rounds)
			head := live
			for _, k := range []int{preloadChunk / 4, preloadChunk / 40} {
				for i := 0; i < slides; i++ {
					c.insert(ring[head : head+k])
					c.delete(ring[head-live : head-live+k])
					head += k
				}
			}
			got := c.p.SweepStats().Insert
			got.Moves, got.Rounds = got.Moves-engine.Moves, got.Rounds-engine.Rounds
			want := SweepCounts{Moves: c.ref.Moves - ref.Moves, Rounds: c.ref.Rounds - ref.Rounds}
			t.Logf("window: engine %d moves in %d rounds, stepwise %d in %d", got.Moves, got.Rounds, want.Moves, want.Rounds)
			if !testing.Short() && 4*got.Moves > want.Moves {
				t.Fatalf("engine made %d moves, more than a quarter of the stepwise sweep's %d", got.Moves, want.Moves)
			}
		})
	}
}

func TestSkipAheadMatchesStepwiseOnGrowthFromEmpty(t *testing.T) {
	const n = 2000
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		c := newStepwiseChecker(t, n)
		edges := gen.Shuffle(gen.ChungLu(n, 16000, 2.2, seed), seed)
		// Batch sizes from a single edge to a third of the graph.
		for lo, size := 0, 1; lo < len(edges); size *= 3 {
			hi := min(lo+size, len(edges))
			c.insert(edges[lo:hi])
			lo = hi
		}
	}
}

// TestSkipAheadMatchesStepwiseOnTinyGraphs uses the vertex counts at which
// groups are shortest (16 levels at n = 2, 88 at n = 50), so that climbs
// cross group boundaries, where the bound a skip target is tested against
// changes.
func TestSkipAheadMatchesStepwiseOnTinyGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	step := 1
	if testing.Short() {
		step = 6
	}
	for n := 2; n <= 50; n += step {
		c := newStepwiseChecker(t, n)
		all := gen.Shuffle(gen.Clique(n), int64(n))
		for thinned := 0; len(all) > 0; {
			k := 1 + rng.Intn(len(all))
			c.insert(all[:k])
			all = all[k:]
			if thinned < 3 && rng.Intn(3) == 0 { // thin the graph, then regrow
				thinned++
				del := c.p.Graph().Edges()
				del = gen.Shuffle(del, int64(len(del)))[:len(del)/2]
				c.delete(del)
				all = append(all, del...)
			}
		}
	}
}

// TestCliqueRisesInOneRound: in a clique every neighbour of a mover moves
// with it, so the stepwise sweep climbs one level per round for as long as
// the clique rises. The rising set is the whole clique, and it must reach
// the same levels in one round of one move per vertex.
func TestCliqueRisesInOneRound(t *testing.T) {
	const n = 50
	c := newStepwiseChecker(t, n)
	c.insert(gen.Clique(n))
	if got := c.p.SweepStats().Insert; got.Moves != n || got.Rounds != 1 {
		t.Fatalf("clique: engine %+v, want %d moves in 1 round (stepwise %+v)", got, n, c.ref)
	}
}

// TestRisingSetsJumpOnChunkedPreload is the benchmark's preload
// (benchmark/inputs.go): a Chung–Lu graph inserted in chunks into an empty
// structure. Each late chunk lifts sets of neighbours that stand on
// several levels of one group, which the stepwise sweep walks up one level
// per round; the engine must reach the same levels in a few dozen rounds,
// moving each vertex a few times at most.
func TestRisingSetsJumpOnChunkedPreload(t *testing.T) {
	n, edges, chunk := 30000, 90000, 10000
	if testing.Short() {
		n, edges, chunk = n/5, edges/5, chunk/5
	}
	c := newStepwiseChecker(t, n)
	for i, b := range gen.Batches(gen.Shuffle(gen.ChungLu(n, 2*edges, 2.4, 1), 2)[:edges], chunk) {
		before, ref := c.p.SweepStats().Insert, c.ref
		c.insert(b)
		got := c.p.SweepStats().Insert
		got.Rounds, got.Moves, got.FirstMoves = got.Rounds-before.Rounds, got.Moves-before.Moves, got.FirstMoves-before.FirstMoves
		t.Logf("chunk %d: engine %d moves of %d vertices in %d rounds, stepwise %d moves in %d rounds",
			i, got.Moves, got.FirstMoves, got.Rounds, c.ref.Moves-ref.Moves, c.ref.Rounds-ref.Rounds)
		if got.Rounds > 40 || 4*got.Moves > 5*got.FirstMoves {
			t.Fatalf("chunk %d: %d moves of %d vertices in %d rounds; want at most 40 rounds and 1.25 moves a vertex", i, got.Moves, got.FirstMoves, got.Rounds)
		}
	}
}

// TestSkipAheadLoneClimber is the opposite case: a hub joined to a clique
// that has already settled climbs alone, and must do so in a handful of
// moves where the stepwise sweep takes one per level. A plain star is the
// degenerate case: its centre has nobody above it and stops after one move.
func TestSkipAheadLoneClimber(t *testing.T) {
	const n = 60
	c := newStepwiseChecker(t, n+1)
	c.insert(gen.Clique(n))
	engine, ref := c.p.SweepStats().Insert, c.ref
	spokes := make([]graph.Edge, n)
	for i := range spokes {
		spokes[i] = graph.E(n, uint32(i))
	}
	c.insert(spokes)
	if got, want := c.p.SweepStats().Insert.Moves-engine.Moves, c.ref.Moves-ref.Moves; got > 8 || want < 100 {
		t.Fatalf("hub: %d moves, stepwise %d; want a handful against hundreds", got, want)
	}

	star := newStepwiseChecker(t, n+1)
	star.insert(spokes)
	if star.p.Level(n) != 1 || star.ref.Moves != 1 {
		t.Fatalf("star centre at level %d after %d stepwise moves, want 1 and 1", star.p.Level(n), star.ref.Moves)
	}
}

func TestLevelJumpPreservesInvariants(t *testing.T) {
	const n = 400
	edges := gen.ChungLu(n, 3500, 2.3, 75)
	p := New(n, defaultP(), nil)
	for _, b := range gen.Batches(edges, 700) {
		p.InsertBatch(b)
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	p.DeleteBatch(edges[:1500])
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after delete: %v", err)
	}
}

func TestLevelJumpPreservesApproximation(t *testing.T) {
	const n = 300
	edges := gen.ChungLu(n, 3000, 2.3, 76)
	p := New(n, defaultP(), nil)
	p.InsertBatch(edges)
	core := exact.Sequential(p.Graph().Snapshot())
	bound := provableBound(defaultP()) + 1e-9
	for v := 0; v < n; v++ {
		if core[v] == 0 {
			continue
		}
		if r := ratioError(p.Estimate(uint32(v)), core[v]); r > bound {
			t.Fatalf("vertex %d ratio %.2f > %.2f", v, r, bound)
		}
	}
}

// lowestWithinLoop and highestSupportedLoop are the level-by-level loops
// the two walks replace: one bound evaluation per level.
func lowestWithinLoop(s *lds.Structure, ls []int32, from int32) int32 {
	for j := from; j < s.MaxLevel(); j++ {
		cnt := 0
		for _, l := range ls {
			if l >= j {
				cnt++
			}
		}
		if float64(cnt) <= s.UpperBound(j) {
			return j
		}
	}
	return s.MaxLevel()
}

func highestSupportedLoop(s *lds.Structure, ls []int32, from int32) int32 {
	for d := from; d >= 1; d-- {
		cnt := 0
		for _, l := range ls {
			if l >= d-1 {
				cnt++
			}
		}
		if float64(cnt) >= s.LowerBound(d) {
			return d
		}
	}
	return 0
}

// TestWalksMatchLevelByLevelLoops feeds both walks random sorted level
// lists on small structures — more entries than any vertex there could have
// neighbours, so that the MaxLevel clamp, which no graph reaches, is hit —
// from random start levels.
func TestWalksMatchLevelByLevelLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{2, 3, 7, 20, 50} {
		s := lds.NewStructure(n, defaultP())
		clamped := false
		for trial := 0; trial < 500; trial++ {
			ls := make([]int32, rng.Intn(4*n))
			span := 1 + rng.Intn(s.K) // crowd some lists into a few levels
			base := rng.Intn(s.K - span + 1)
			if trial == 0 { // everything at the top: nothing below it is within bounds
				ls, span, base = make([]int32, 16*n), 1, s.K-1
			}
			for i := range ls {
				ls[i] = int32(base + rng.Intn(span))
			}
			slices.Sort(ls)
			for i := 0; i < 40; i++ {
				from := int32(rng.Intn(s.K))
				want := lowestWithinLoop(s, ls, from)
				if got := lowestWithin(s, ls, from); got != want {
					t.Fatalf("n=%d lowestWithin(%v, %d) = %d, want %d", n, ls, from, got, want)
				}
				clamped = clamped || (want == s.MaxLevel() && from < want)
				if got, want := highestSupported(s, ls, from), highestSupportedLoop(s, ls, from); got != want {
					t.Fatalf("n=%d highestSupported(%v, %d) = %d, want %d", n, ls, from, got, want)
				}
			}
		}
		if !clamped {
			t.Fatalf("n=%d: no input climbed to MaxLevel", n)
		}
	}
}

// TestDesireLevelMatchesLevelByLevelLoop checks desireLevel as the deletion
// sweep calls it — on the vertices that violate Invariant 2 once a batch of
// edges is gone from the graph and the levels have not moved yet — on the
// sliding-window fixture's graph.
func TestDesireLevelMatchesLevelByLevelLoop(t *testing.T) {
	n := 30000
	if testing.Short() {
		n /= 5
	}
	ring := gen.Shuffle(gen.ChungLu(n, 6*n, 2.4, 104), 105)
	p := New(n, defaultP(), nil)
	p.InsertBatch(ring[:3*n])
	p.g.DeleteEdges(ring[:n])
	checked := 0
	for v := uint32(0); v < uint32(n); v++ {
		if !p.violatesInv2(v) {
			continue
		}
		ls := p.neighbourLevels(v, nil)
		if got, want := p.desireLevel(v), highestSupportedLoop(p.S, ls, p.Level(v)-1); got != want {
			t.Fatalf("vertex %d at level %d: desire level %d, want %d", v, p.Level(v), got, want)
		}
		checked++
	}
	if checked < n/30 {
		t.Fatalf("only %d violators checked", checked)
	}
}

func TestSweepStatsCountMoves(t *testing.T) {
	const n = 300
	tr := &countingTracker{}
	p := New(n, defaultP(), tr)
	edges := gen.ChungLu(n, 2500, 2.3, 77)
	p.InsertBatch(edges)
	p.InsertBatch(edges) // nothing new: no sweep
	ins := p.SweepStats()
	if ins.Insert.FirstMoves != tr.moves.Load() || ins.Insert.FirstMoves == 0 {
		t.Fatalf("insert FirstMoves = %d, tracker saw %d", ins.Insert.FirstMoves, tr.moves.Load())
	}
	if ins.Insert.Moves < ins.Insert.FirstMoves || ins.Insert.Rounds == 0 || ins.Insert.Rounds > ins.Insert.Moves {
		t.Fatalf("implausible insert counters %+v", ins.Insert)
	}
	if ins.Delete != (SweepCounts{}) {
		t.Fatalf("delete counters moved without a deletion: %+v", ins.Delete)
	}
	p.DeleteBatch(edges[:1500])
	del := p.SweepStats()
	if del.Insert != ins.Insert {
		t.Fatalf("insert counters moved during a deletion: %+v -> %+v", ins.Insert, del.Insert)
	}
	if got := del.Insert.FirstMoves + del.Delete.FirstMoves; got != tr.moves.Load() || del.Delete.FirstMoves == 0 {
		t.Fatalf("FirstMoves = %d over both kinds, tracker saw %d", got, tr.moves.Load())
	}
}
