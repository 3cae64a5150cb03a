package plds

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"kcore/internal/exact"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/parallel"
)

func defaultP() lds.Params { return lds.DefaultParams() }

func TestKindString(t *testing.T) {
	if Insert.String() != "insert" || Delete.String() != "delete" {
		t.Fatal("Kind.String broken")
	}
}

func TestInsertBatchBasic(t *testing.T) {
	p := New(5, defaultP(), nil)
	applied := p.InsertBatch([]graph.Edge{graph.E(0, 1), graph.E(1, 0), graph.E(2, 2), graph.E(1, 2)})
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.Graph().NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", p.Graph().NumEdges())
	}
}

func TestDeleteBatchBasic(t *testing.T) {
	p := New(5, defaultP(), nil)
	p.InsertBatch([]graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 3)})
	removed := p.DeleteBatch([]graph.Edge{graph.E(1, 2), graph.E(3, 4)})
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBatches(t *testing.T) {
	p := New(3, defaultP(), nil)
	if p.InsertBatch(nil) != 0 || p.DeleteBatch(nil) != 0 {
		t.Fatal("empty batches should apply nothing")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// epochTracker records the epoch observed inside each BatchEnd hook, to pin
// down the publication point: the epoch must advance after the hook (i.e.
// after all level changes), exactly once per batch.
type epochTracker struct {
	p      *PLDS
	atEnds []uint64
}

func (tr *epochTracker) BatchStart(Kind, []graph.Edge)    {}
func (tr *epochTracker) VertexMoving(uint32, int32, Kind) {}
func (tr *epochTracker) BatchEnd(Kind)                    { tr.atEnds = append(tr.atEnds, tr.p.Epoch()) }

func TestEpochPublishedAtCommit(t *testing.T) {
	tr := &epochTracker{}
	p := New(10, defaultP(), tr)
	tr.p = p
	if p.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", p.Epoch())
	}
	p.InsertBatch([]graph.Edge{graph.E(0, 1), graph.E(1, 2)})
	// Batches that change no edge commit nothing: no hook, no epoch.
	p.InsertBatch(nil)
	p.InsertBatch([]graph.Edge{graph.E(1, 0)})
	p.DeleteBatch([]graph.Edge{graph.E(3, 4)})
	p.DeleteBatch([]graph.Edge{graph.E(0, 1)})
	if got := p.Epoch(); got != 2 {
		t.Fatalf("epoch after 2 changing batches = %d, want 2", got)
	}
	// Inside each BatchEnd hook the epoch of that batch was not yet
	// published (commit = publication happens after the hook).
	want := []uint64{0, 1}
	if len(tr.atEnds) != len(want) {
		t.Fatalf("BatchEnd ran %d times, want %d", len(tr.atEnds), len(want))
	}
	for i, e := range tr.atEnds {
		if e != want[i] {
			t.Fatalf("epoch inside BatchEnd #%d = %d, want %d (published before commit)", i, e, want[i])
		}
	}
}

func TestInvariantsAfterInsertionBatches(t *testing.T) {
	const n = 500
	edges := gen.ChungLu(n, 4000, 2.3, 61)
	p := New(n, defaultP(), nil)
	for _, b := range gen.Batches(edges, 500) {
		p.InsertBatch(b)
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInvariantsAfterDeletionBatches(t *testing.T) {
	const n = 500
	edges := gen.ChungLu(n, 4000, 2.3, 62)
	p := New(n, defaultP(), nil)
	p.InsertBatch(edges)
	for _, b := range gen.Batches(edges, 500) {
		p.DeleteBatch(b)
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Graph().NumEdges() != 0 {
		t.Fatalf("graph not empty: %d edges", p.Graph().NumEdges())
	}
	for v := uint32(0); v < n; v++ {
		if p.Level(v) != 0 {
			t.Fatalf("vertex %d at level %d in empty graph", v, p.Level(v))
		}
	}
}

func TestDenseCliqueBatch(t *testing.T) {
	const n = 60
	p := New(n, defaultP(), nil)
	p.InsertBatch(gen.Clique(n))
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All clique vertices should be at the same level and estimate ~n-1.
	l0 := p.Level(0)
	for v := uint32(1); v < n; v++ {
		if p.Level(v) != l0 {
			t.Fatalf("clique levels differ: %d vs %d", p.Level(v), l0)
		}
	}
	bound := defaultP().ApproxFactor() * (1 + defaultP().Delta)
	est := p.Estimate(0)
	if est < float64(n-1)/bound || est > float64(n-1)*bound {
		t.Fatalf("clique estimate %.1f not within bound of %d", est, n-1)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 400
	edges := gen.ChungLu(n, 3000, 2.4, 63)
	batches := gen.Batches(edges, 300)
	run := func(workers int) []int32 {
		old := parallel.Workers()
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(old)
		p := New(n, defaultP(), nil)
		for i, b := range batches {
			if i%2 == 0 {
				p.InsertBatch(b)
			} else {
				p.InsertBatch(b)
			}
		}
		// Delete a few batches too.
		p.DeleteBatch(batches[0])
		p.DeleteBatch(batches[2])
		out := make([]int32, n)
		for v := uint32(0); v < n; v++ {
			out[v] = p.Level(v)
		}
		return out
	}
	a := run(1)
	b := run(8)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("levels differ at %d: %d vs %d", v, a[v], b[v])
		}
	}
}

// ratioError matches the paper's Fig. 6 error metric.
func ratioError(est float64, k int32) float64 {
	kk := math.Max(float64(k), 1)
	ee := math.Max(est, 1)
	return math.Max(ee/kk, kk/ee)
}

func provableBound(p lds.Params) float64 {
	return (2 + 3/p.Lambda) * (1 + p.Delta) * (1 + p.Delta)
}

func TestApproximationVsExactAfterBatches(t *testing.T) {
	const n = 600
	edges := gen.ChungLu(n, 5000, 2.3, 64)
	p := New(n, defaultP(), nil)
	for _, b := range gen.Batches(edges, 1000) {
		p.InsertBatch(b)
	}
	core := exact.Sequential(p.Graph().Snapshot())
	bound := provableBound(defaultP()) + 1e-9
	for v := 0; v < n; v++ {
		if core[v] == 0 {
			continue
		}
		if r := ratioError(p.Estimate(uint32(v)), core[v]); r > bound {
			t.Fatalf("vertex %d: estimate %.2f vs coreness %d (ratio %.2f)",
				v, p.Estimate(uint32(v)), core[v], r)
		}
	}
}

func TestApproximationAfterDeletionBatches(t *testing.T) {
	const n = 400
	edges := gen.ErdosRenyi(n, 4000, 65)
	p := New(n, defaultP(), nil)
	p.InsertBatch(edges)
	p.DeleteBatch(edges[:2000])
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	core := exact.Sequential(p.Graph().Snapshot())
	bound := provableBound(defaultP()) + 1e-9
	for v := 0; v < n; v++ {
		if core[v] == 0 {
			continue
		}
		if r := ratioError(p.Estimate(uint32(v)), core[v]); r > bound {
			t.Fatalf("vertex %d: ratio %.2f > %.2f", v, r, bound)
		}
	}
}

func TestMixedBatchSequence(t *testing.T) {
	const n = 300
	edges := gen.ChungLu(n, 2500, 2.4, 66)
	mbs := gen.MixedBatches(edges, 400, 0.3, 67)
	p := New(n, defaultP(), nil)
	for _, mb := range mbs {
		p.InsertBatch(mb.Insertions)
		p.DeleteBatch(mb.Deletions)
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPLDSProperty(t *testing.T) {
	f := func(raw [][2]uint8, split uint8) bool {
		const n = 64
		edges := make([]graph.Edge, 0, len(raw))
		for _, pr := range raw {
			edges = append(edges, graph.E(uint32(pr[0])%n, uint32(pr[1])%n))
		}
		bs := int(split)%20 + 1
		p := New(n, defaultP(), nil)
		for _, b := range gen.Batches(edges, bs) {
			p.InsertBatch(b)
		}
		if p.CheckInvariants() != nil {
			return false
		}
		for _, b := range gen.Batches(edges, bs*2+1) {
			p.DeleteBatch(b)
		}
		return p.CheckInvariants() == nil && p.Graph().NumEdges() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// countingTracker records tracker callbacks for verification.
type countingTracker struct {
	starts, ends  atomic.Int64
	moves         atomic.Int64
	lastKind      Kind
	movedPerBatch map[uint32]int
}

func (c *countingTracker) BatchStart(kind Kind, applied []graph.Edge) {
	c.starts.Add(1)
	c.lastKind = kind
	c.movedPerBatch = map[uint32]int{}
}

func (c *countingTracker) VertexMoving(v uint32, oldLevel int32, kind Kind) {
	c.moves.Add(1)
}

func (c *countingTracker) BatchEnd(kind Kind) { c.ends.Add(1) }

func TestTrackerCallbacks(t *testing.T) {
	const n = 200
	tr := &countingTracker{}
	p := New(n, defaultP(), tr)
	edges := gen.ErdosRenyi(n, 1500, 69)
	p.InsertBatch(edges)
	if tr.starts.Load() != 1 || tr.ends.Load() != 1 {
		t.Fatalf("starts/ends = %d/%d", tr.starts.Load(), tr.ends.Load())
	}
	if tr.moves.Load() == 0 {
		t.Fatal("no VertexMoving callbacks for a dense insertion batch")
	}
	moves := tr.moves.Load()
	p.DeleteBatch(edges)
	if tr.starts.Load() != 2 || tr.ends.Load() != 2 {
		t.Fatalf("starts/ends after delete = %d/%d", tr.starts.Load(), tr.ends.Load())
	}
	if tr.moves.Load() == moves {
		t.Fatal("no VertexMoving callbacks for the deletion batch")
	}
}

// firstMoveTracker verifies each vertex triggers at most one callback per
// batch and that oldLevel matches the pre-batch level.
type firstMoveTracker struct {
	t         *testing.T
	preLevels []int32
	seen      []atomic.Bool
	p         *PLDS
}

func (f *firstMoveTracker) BatchStart(kind Kind, applied []graph.Edge) {
	for v := range f.preLevels {
		f.preLevels[v] = f.p.Level(uint32(v))
		f.seen[v].Store(false)
	}
}

func (f *firstMoveTracker) VertexMoving(v uint32, oldLevel int32, kind Kind) {
	if f.seen[v].Swap(true) {
		f.t.Errorf("vertex %d moved twice via tracker in one batch", v)
	}
	if oldLevel != f.preLevels[v] {
		f.t.Errorf("vertex %d: oldLevel %d != pre-batch level %d", v, oldLevel, f.preLevels[v])
	}
}

func (f *firstMoveTracker) BatchEnd(kind Kind) {}

func TestTrackerFirstMoveSemantics(t *testing.T) {
	const n = 300
	f := &firstMoveTracker{t: t, preLevels: make([]int32, n), seen: make([]atomic.Bool, n)}
	p := New(n, defaultP(), f)
	f.p = p
	edges := gen.ChungLu(n, 2500, 2.3, 70)
	for _, b := range gen.Batches(edges, 500) {
		p.InsertBatch(b)
	}
	for _, b := range gen.Batches(edges, 700) {
		p.DeleteBatch(b)
	}
}

func TestRepeatedInsertDeleteCycles(t *testing.T) {
	const n = 150
	edges := gen.ErdosRenyi(n, 900, 71)
	p := New(n, defaultP(), nil)
	for cycle := 0; cycle < 5; cycle++ {
		p.InsertBatch(edges)
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d insert: %v", cycle, err)
		}
		p.DeleteBatch(edges)
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d delete: %v", cycle, err)
		}
	}
}

func BenchmarkInsertBatch100k(b *testing.B) {
	const n = 50000
	edges := gen.ChungLu(n, 100000, 2.4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(n, defaultP(), nil)
		p.InsertBatch(edges)
	}
}

func BenchmarkDeleteBatch(b *testing.B) {
	const n = 20000
	edges := gen.ChungLu(n, 60000, 2.4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := New(n, defaultP(), nil)
		p.InsertBatch(edges)
		b.StartTimer()
		p.DeleteBatch(edges[:30000])
	}
}
