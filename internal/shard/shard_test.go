package shard

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kcore/internal/cplds"
	"kcore/internal/exact"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/parallel"
	"kcore/internal/wal"
)

func defaultP() lds.Params { return lds.DefaultParams() }

// provableBound is the end-to-end bound on the ratio between an estimate
// and the exact coreness: the (2+3/λ)(1+δ) approximation factor times the
// extra (1+δ) slack of the level-to-estimate rounding (same bound the PLDS
// tests assert).
func provableBound(p lds.Params) float64 {
	return p.ApproxFactor() * (1 + p.Delta)
}

func ratioError(est float64, k int32) float64 {
	kk := math.Max(float64(k), 1)
	ee := math.Max(est, 1)
	return math.Max(ee/kk, kk/ee)
}

func TestShardOfInRangeAndStable(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		e := New(1000, p, defaultP())
		for v := uint32(0); v < 1000; v++ {
			s := e.ShardOf(v)
			if s < 0 || s >= p {
				t.Fatalf("P=%d: ShardOf(%d) = %d out of range", p, v, s)
			}
			if s != e.ShardOf(v) {
				t.Fatalf("P=%d: ShardOf(%d) unstable", p, v)
			}
		}
	}
	// The hash should actually spread vertices across shards.
	e := New(1000, 4, defaultP())
	counts := make([]int, 4)
	for v := uint32(0); v < 1000; v++ {
		counts[e.ShardOf(v)]++
	}
	for s, c := range counts {
		if c < 100 {
			t.Fatalf("shard %d owns only %d of 1000 vertices", s, c)
		}
	}
}

// slidingWindow returns a Chung–Lu ring for a sliding-window stream: the
// first live edges are the preload, and batch i inserts the k edges after
// the window and deletes the k oldest.
func slidingWindow(n, pool int, seed int64) []graph.Edge {
	ring := gen.Shuffle(gen.ChungLu(n, pool, 2.4, seed), seed+1)
	return append(ring, ring...)
}

// TestSingleShardMatchesCPLDS: one shard is a CPLDS behind a mutex, so
// after every batch of a sliding window it must hold the levels, epoch,
// edge count and load stats of a bare CPLDS fed the same sub-batches. The
// batches carry duplicates, self-loops, out-of-range endpoints and an edge
// that is both inserted and deleted; a deduping path would drop the
// insertion of the last one and count one batch per round.
func TestSingleShardMatchesCPLDS(t *testing.T) {
	n, pool, live, k, slides := 2000, 12000, 6000, 200, 30
	if testing.Short() {
		slides = 10
	}
	ring := slidingWindow(n, pool, 7)
	e := New(n, 1, defaultP())
	c := cplds.New(n, defaultP())
	want := Stats{OwnedVertices: n}
	got, ref := make([]int32, n), make([]int32, n)
	step := func(ins, del []graph.Edge) {
		t.Helper()
		gi, gd, _ := e.Apply(ins, del)
		var wi, wd int
		if len(ins) > 0 {
			wi = c.InsertBatch(ins)
		}
		if len(del) > 0 {
			wd = c.DeleteBatch(del)
		}
		if gi != wi || gd != wd {
			t.Fatalf("Apply applied (%d,%d), the CPLDS (%d,%d)", gi, gd, wi, wd)
		}
		want.Inserted += int64(wi)
		want.Deleted += int64(wd)
		want.Batches = c.Epoch()
		want.LocalEdges = c.Graph().NumEdges()
		want.PrimaryEdges = want.LocalEdges
		if st := e.Stats()[0]; st != want {
			t.Fatalf("stats %+v, want %+v", st, want)
		}
		if e.Epoch() != c.Epoch() || e.NumEdges() != want.LocalEdges {
			t.Fatalf("epoch %d, edges %d; the CPLDS has %d, %d",
				e.Epoch(), e.NumEdges(), c.Epoch(), want.LocalEdges)
		}
		e.LocalCPLDS(0).Levels(got)
		c.Levels(ref)
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("vertex %d: level %d, the CPLDS %d", v, got[v], ref[v])
			}
		}
	}
	for _, b := range gen.Batches(ring[:live], live/3) {
		step(b, nil)
	}
	for i, head := 0, live; i < slides; i, head = i+1, head+k {
		ins := append([]graph.Edge(nil), ring[head:head+k]...)
		del := append([]graph.Edge(nil), ring[head-live:head-live+k]...)
		fresh := ins[0]
		ins = append(ins, ins[1], graph.Edge{U: ins[2].V, V: ins[2].U}, // duplicates
			graph.Edge{U: 5, V: 5},             // self-loop
			graph.Edge{U: uint32(n) + 3, V: 1}) // out of range
		del = append(del, fresh, del[0], graph.Edge{U: 9, V: uint32(n)}) // both sides; duplicate; out of range
		step(ins, del)
	}
	step(nil, ring[:3]) // deletion-only round
	step(nil, nil)      // all-empty: no epoch
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOneShardApplyAllocs: the one-shard path adds no allocation to a
// steady-state batch over InsertBatch+DeleteBatch on a bare CPLDS.
func TestOneShardApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	const n, live, k = 1000, 3000, 100
	ring := slidingWindow(n, 6000, 17)
	e := New(n, 1, defaultP())
	c := cplds.New(n, defaultP())
	e.Insert(ring[:live])
	c.InsertBatch(ring[:live])
	// Alternate two batches: x is absent and y present, then the reverse.
	flip := func(apply func(ins, del []graph.Edge)) func() {
		x, y := ring[live:live+k], ring[:k]
		return func() {
			apply(x, y)
			x, y = y, x
		}
	}
	bare := testing.AllocsPerRun(10, flip(func(ins, del []graph.Edge) {
		c.InsertBatch(ins)
		c.DeleteBatch(del)
	}))
	one := testing.AllocsPerRun(10, flip(func(ins, del []graph.Edge) { e.Apply(ins, del) }))
	if one > bare {
		t.Fatalf("one-shard Apply: %.1f allocs per batch, bare CPLDS %.1f", one, bare)
	}
}

func TestAppliedCountsMatchSingleEngineSemantics(t *testing.T) {
	const n = 200
	e := New(n, 4, defaultP())

	if got := e.Insert([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 1}, {U: 3, V: 3}, {U: 5, V: 9999}}); got != 1 {
		t.Fatalf("insert with dup/self-loop/out-of-range applied %d, want 1", got)
	}
	if got := e.Insert([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}}); got != 1 {
		t.Fatalf("re-insert applied %d, want 1", got)
	}
	if got := e.Delete([]graph.Edge{{U: 1, V: 2}, {U: 7, V: 8}}); got != 1 {
		t.Fatalf("delete applied %d, want 1", got)
	}
	if got := e.NumEdges(); got != 1 {
		t.Fatalf("NumEdges %d, want 1", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDedupesInsertDeletePairs(t *testing.T) {
	const n = 100
	e := New(n, 4, defaultP())

	// Same edge inserted and deleted in one submission: as at P = 1 (see
	// TestSingleShardMatchesCPLDS), the insertion sub-batch adds it and the
	// deletion sub-batch removes it, counting on both sides.
	ins, del, _ := e.Apply([]graph.Edge{{U: 1, V: 2}}, []graph.Edge{{U: 2, V: 1}})
	if ins != 1 || del != 1 {
		t.Fatalf("insert+delete of absent edge applied (%d,%d), want (1,1)", ins, del)
	}
	if e.LocalGraph(e.ShardOf(1)).HasEdge(1, 2) {
		t.Fatal("edge survived an insert+delete pair")
	}

	// Present edge: the insertion is a no-op and the deletion removes it.
	e.Insert([]graph.Edge{{U: 1, V: 2}})
	ins, del, _ = e.Apply([]graph.Edge{{U: 1, V: 2}}, []graph.Edge{{U: 1, V: 2}})
	if ins != 0 || del != 1 {
		t.Fatalf("insert+delete of present edge applied (%d,%d), want (0,1)", ins, del)
	}
	if got := e.NumEdges(); got != 0 {
		t.Fatalf("NumEdges %d, want 0", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestApplySameAtEveryShardCount: an update call means the same at every
// shard count. Seeded mixed calls whose lists overlap and carry
// duplicates, self-loops and out-of-range endpoints run on P = 1 and P = 3.
// After every call both engines report the same (inserted, deleted), edge
// count and global edge list, and the invariants hold. Epochs are not
// compared across P (a cut edge commits on two shards), but one model
// holds at both: an engine's epoch advances by one per shard sub-batch that
// changed that shard's graph, i.e. moved its Inserted or Deleted count, and
// it logs one record per shard round that did. Finally the P = 3 batch log,
// replayed into a fresh engine, reproduces its load stats and levels.
func TestApplySameAtEveryShardCount(t *testing.T) {
	const n, calls = 60, 50
	rng := rand.New(rand.NewSource(29))
	one, three := New(n, 1, defaultP()), New(n, 3, defaultP())
	var mu sync.Mutex // rounds of distinct shards log concurrently
	var records []wal.Batch
	three.SetBatchLog(func(b wal.Batch) {
		b.Ins, b.Del = slices.Clone(b.Ins), slices.Clone(b.Del)
		mu.Lock()
		records = append(records, b)
		mu.Unlock()
	})
	edge := func() graph.Edge {
		switch rng.Intn(20) {
		case 0:
			v := uint32(rng.Intn(n))
			return graph.Edge{U: v, V: v}
		case 1:
			return graph.Edge{U: uint32(rng.Intn(n)), V: uint32(n + rng.Intn(4))}
		}
		return graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
	}
	// changed counts the shard sub-batches and the shard rounds that moved
	// a shard's Inserted or Deleted count between two Stats snapshots.
	changed := func(before, after []Stats) (subBatches, rounds uint64) {
		for si := range before {
			ins, del := after[si].Inserted != before[si].Inserted, after[si].Deleted != before[si].Deleted
			if ins {
				subBatches++
			}
			if del {
				subBatches++
			}
			if ins || del {
				rounds++
			}
		}
		return subBatches, rounds
	}
	for c := 0; c < calls; c++ {
		var ins, del []graph.Edge
		for i := rng.Intn(30); i > 0; i-- {
			ins = append(ins, edge())
		}
		for i := rng.Intn(20); i > 0; i-- {
			del = append(del, edge())
		}
		for i := 0; i < len(ins) && i < 3; i++ { // inserted and deleted in one call
			del = append(del, graph.Edge{U: ins[i].V, V: ins[i].U})
		}
		if len(ins) > 1 {
			ins = append(ins, ins[1]) // duplicate
		}
		ep1, ep3, st1, st3, logged := one.Epoch(), three.Epoch(), one.Stats(), three.Stats(), len(records)
		i1, d1, _ := one.Apply(ins, del)
		i3, d3, _ := three.Apply(ins, del)
		sub1, _ := changed(st1, one.Stats())
		sub3, rounds3 := changed(st3, three.Stats())
		if one.Epoch() != ep1+sub1 || three.Epoch() != ep3+sub3 {
			t.Fatalf("call %d: epochs %d (P=1) and %d (P=3), want %d and %d", c, one.Epoch(), three.Epoch(), ep1+sub1, ep3+sub3)
		}
		if got := uint64(len(records) - logged); got != rounds3 {
			t.Fatalf("call %d: P=3 logged %d records for %d changing rounds", c, got, rounds3)
		}
		if i1 != i3 || d1 != d3 {
			t.Fatalf("call %d: P=1 applied (%d,%d), P=3 (%d,%d)", c, i1, d1, i3, d3)
		}
		if one.NumEdges() != three.NumEdges() || !slices.Equal(one.GlobalEdges(), three.GlobalEdges()) {
			t.Fatalf("call %d: P=1 has %d edges, P=3 %d, or the edge lists differ", c, one.NumEdges(), three.NumEdges())
		}
		for _, e := range []*Engine{one, three} {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("call %d, P=%d: %v", c, e.NumShards(), err)
			}
		}
	}

	replay := New(n, 3, defaultP())
	for _, b := range records {
		replay.ApplyLogged(b)
	}
	if got, want := replay.Stats(), three.Stats(); !slices.Equal(got, want) {
		t.Fatalf("replayed stats %+v, live %+v", got, want)
	}
	got, want := make([]int32, n), make([]int32, n)
	for si := 0; si < 3; si++ {
		replay.LocalCPLDS(si).Levels(got)
		three.LocalCPLDS(si).Levels(want)
		if !slices.Equal(got, want) {
			t.Fatalf("shard %d: replayed levels differ from the live ones", si)
		}
	}
	if err := replay.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMixedStreamMirrorsStayConsistent(t *testing.T) {
	const n = 250
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{2, 4} {
		e := New(n, p, defaultP())
		for round := 0; round < 12; round++ {
			var ins, del []graph.Edge
			for i := 0; i < 120; i++ {
				ed := graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
				if rng.Intn(3) == 0 {
					del = append(del, ed)
				} else {
					ins = append(ins, ed)
				}
			}
			e.Apply(ins, del)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("P=%d round %d: %v", p, round, err)
			}
		}
		// The reassembled global graph must be internally consistent too.
		g := graph.FromEdges(n, e.GlobalEdges())
		if err := g.Validate(); err != nil {
			t.Fatalf("P=%d: global graph: %v", p, err)
		}
		if g.NumEdges() != e.NumEdges() {
			t.Fatalf("P=%d: global %d edges, counter %d", p, g.NumEdges(), e.NumEdges())
		}
	}
}

// TestShardedApproximationBounds is the determinism/equivalence harness:
// one fixed update stream is replayed at P = 1, 2, 4 and 8, and at every
// shard count the estimate of each vertex must satisfy the paper's
// provable bound against the exact coreness of its owning shard's
// subgraph (for P = 1 that is the global graph), and must never exceed
// the bound times the global exact coreness (the local coreness of a
// subgraph lower-bounds the global one).
func TestShardedApproximationBounds(t *testing.T) {
	const n = 400
	edges := gen.ChungLu(n, 3200, 2.3, 42)
	bound := provableBound(defaultP()) + 1e-9

	for _, p := range []int{1, 2, 4, 8} {
		e := New(n, p, defaultP())
		for _, b := range gen.Batches(edges, 500) {
			e.Insert(b)
		}
		e.Delete(edges[:1000])
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		globalCore := exact.Parallel(e.Snapshot())
		for s := 0; s < p; s++ {
			localCore := exact.Parallel(e.LocalGraph(s).Snapshot())
			for v := uint32(0); v < n; v++ {
				if e.ShardOf(v) != s || localCore[v] == 0 {
					continue
				}
				est := e.Read(v)
				if r := ratioError(est, localCore[v]); r > bound {
					t.Fatalf("P=%d shard %d vertex %d: estimate %.2f vs local coreness %d (ratio %.2f > %.2f)",
						p, s, v, est, localCore[v], r, bound)
				}
				if est > bound*math.Max(float64(globalCore[v]), 1) {
					t.Fatalf("P=%d vertex %d: estimate %.2f exceeds bound×global coreness %d",
						p, v, est, globalCore[v])
				}
			}
		}
	}
}

// TestConcurrentReadersVsBatchWriters is the race/linearizability stress
// harness: goroutine readers race concurrent batch writers (run it under
// -race). Throughout the run every read must return a well-formed estimate
// — a value the level structure can actually produce, i.e. never a torn
// level — and at quiescent checkpoints the estimates must satisfy the
// paper's error bound against exact coreness of the shard subgraphs.
func TestConcurrentReadersVsBatchWriters(t *testing.T) {
	const n = 200
	rounds, writers, readers := 16, 3, 4
	if testing.Short() {
		rounds = 6
	}
	e := New(n, 4, defaultP())

	// The lattice of estimates the level structure can emit: one value per
	// level. Any read outside this set observed a torn/intermediate state.
	valid := make(map[float64]bool)
	s := e.LocalCPLDS(0).S
	for l := int32(0); l <= s.MaxLevel(); l++ {
		valid[s.EstimateFromLevel(l)] = true
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		rng := rand.New(rand.NewSource(int64(100 + r)))
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := uint32(rng.Intn(n))
				est := e.Read(v)
				if !valid[est] {
					t.Errorf("torn read: vertex %d returned %v, not a level estimate", v, est)
					return
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		rng := rand.New(rand.NewSource(int64(7 + w)))
		go func() {
			defer writerWG.Done()
			for round := 0; round < rounds; round++ {
				var ins, del []graph.Edge
				for i := 0; i < 100; i++ {
					ed := graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
					if rng.Intn(4) == 0 {
						del = append(del, ed)
					} else {
						ins = append(ins, ed)
					}
				}
				e.Apply(ins, del)
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		return
	}

	// Quiescent checkpoint: structural invariants plus the paper's error
	// bound for every vertex against its shard subgraph.
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	bound := provableBound(defaultP()) + 1e-9
	for si := 0; si < e.NumShards(); si++ {
		localCore := exact.Parallel(e.LocalGraph(si).Snapshot())
		for v := uint32(0); v < n; v++ {
			if e.ShardOf(v) != si || localCore[v] == 0 {
				continue
			}
			if r := ratioError(e.Read(v), localCore[v]); r > bound {
				t.Fatalf("shard %d vertex %d: ratio %.2f > %.2f after stress", si, v, r, bound)
			}
		}
	}
}

// TestConcurrentDisjointInsertsAllLand checks that racing submissions are
// all applied exactly once: writers insert disjoint edge sets concurrently
// and the union must come out, with per-caller counts adding up.
func TestConcurrentDisjointInsertsAllLand(t *testing.T) {
	const n = 600
	const perWriter = 120
	const writers = 5
	e := New(n, 4, defaultP())
	counts := make([]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			edges := make([]graph.Edge, 0, perWriter)
			for i := 0; i < perWriter; i++ {
				// Disjoint vertex ranges per writer => disjoint edges.
				base := uint32(w * perWriter)
				edges = append(edges, graph.Edge{U: base + uint32(i%perWriter), V: base + uint32((i+1)%perWriter)})
			}
			counts[w] = e.Insert(edges)
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if int64(total) != e.NumEdges() {
		t.Fatalf("per-caller counts sum to %d, engine has %d edges", total, e.NumEdges())
	}
	if got := len(e.GlobalEdges()); int64(got) != e.NumEdges() {
		t.Fatalf("global edge list has %d edges, counter %d", got, e.NumEdges())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardStats(t *testing.T) {
	const n = 600
	edges := gen.ChungLu(n, 3000, 2.3, 41)
	e := New(n, 4, defaultP())
	e.Insert(edges)
	half := edges[:len(edges)/2]
	e.Delete(half)

	stats := e.Stats()
	if len(stats) != 4 {
		t.Fatalf("got %d stats entries, want 4", len(stats))
	}
	var owned int
	var primary, local, inserted, deleted int64
	var batches uint64
	for i, s := range stats {
		if s.Shard != i {
			t.Fatalf("entry %d has shard id %d", i, s.Shard)
		}
		if s.OwnedVertices != e.owned[i] {
			t.Fatalf("shard %d owned %d != %d", i, s.OwnedVertices, e.owned[i])
		}
		if s.LocalEdges < s.PrimaryEdges {
			t.Fatalf("shard %d local %d < primary %d", i, s.LocalEdges, s.PrimaryEdges)
		}
		owned += s.OwnedVertices
		primary += s.PrimaryEdges
		local += s.LocalEdges
		inserted += s.Inserted
		deleted += s.Deleted
		batches += s.Batches
	}
	if owned != n {
		t.Fatalf("owned vertices sum %d != %d", owned, n)
	}
	if primary != e.NumEdges() {
		t.Fatalf("primary edges sum %d != global %d", primary, e.NumEdges())
	}
	if inserted == 0 || deleted == 0 || batches < 2 {
		t.Fatalf("cumulative counters not maintained: ins=%d del=%d batches=%d",
			inserted, deleted, batches)
	}
	// local >= primary overall, with equality only if no cut edges exist.
	if local < primary {
		t.Fatalf("local edges sum %d < primary sum %d", local, primary)
	}
	// CheckInvariants cross-checks the stats counters against a recount.
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardStatsConcurrentWithUpdates(t *testing.T) {
	// Stats must be safe to read while submissions race (exercised under
	// -race in CI).
	const n = 400
	edges := gen.ChungLu(n, 2000, 2.3, 42)
	e := New(n, 2, defaultP())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range e.Stats() {
				_ = s.LocalEdges
			}
		}
	}()
	for i := 0; i+100 <= len(edges); i += 100 {
		e.Insert(edges[i : i+100])
	}
	close(stop)
	wg.Wait()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
