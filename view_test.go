package kcore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestViewBasics exercises the quiescent behaviour of the View read
// surface in single-engine mode: agreement with the legacy read methods,
// epoch advancement at batch boundaries, and histogram accounting.
func TestViewBasics(t *testing.T) {
	d, err := New(40)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Epoch(); got != 0 {
		t.Fatalf("fresh Epoch = %d, want 0", got)
	}
	d.InsertEdges(clique(10))
	if got := d.Epoch(); got != 1 {
		t.Fatalf("Epoch after one batch = %d, want 1", got)
	}

	v := d.View()
	if v.Epoch() != 1 {
		t.Fatalf("view pinned at epoch %d, want 1", v.Epoch())
	}
	ids := []uint32{0, 3, 9, 20}
	many := v.CorenessMany(ids)
	for i, u := range ids {
		if want := d.Coreness(u); many[i] != want {
			t.Fatalf("CorenessMany[%d] = %v, Coreness(%d) = %v", i, many[i], u, want)
		}
		if got := v.Coreness(u); got != many[i] {
			t.Fatalf("view Coreness(%d) = %v, want %v", u, got, many[i])
		}
	}
	if v.Epoch() != 1 {
		t.Fatalf("view epoch drifted to %d with no updates", v.Epoch())
	}

	// CorenessManyInto matches and reports the epoch.
	out := make([]float64, len(ids))
	if e := v.CorenessManyInto(ids, out); e != 1 {
		t.Fatalf("CorenessManyInto epoch = %d", e)
	}
	for i := range ids {
		if out[i] != many[i] {
			t.Fatalf("CorenessManyInto[%d] = %v, want %v", i, out[i], many[i])
		}
	}

	// TopK ranks the clique first.
	top := v.TopK(10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d vertices", len(top))
	}
	for _, u := range top {
		if u >= 10 {
			t.Fatalf("non-clique vertex %d in TopK", u)
		}
	}

	// Histogram buckets are ascending and account for every vertex.
	hist := v.Histogram()
	total := 0
	for i, b := range hist {
		total += b.Count
		if i > 0 && hist[i-1].Coreness >= b.Coreness {
			t.Fatalf("histogram not strictly ascending: %v", hist)
		}
	}
	if total != d.NumVertices() {
		t.Fatalf("histogram covers %d vertices, want %d", total, d.NumVertices())
	}

	// A stale view re-pins to the newest committed epoch on its next read.
	d.DeleteEdges(clique(10))
	if got := d.Epoch(); got != 2 {
		t.Fatalf("Epoch after two batches = %d, want 2", got)
	}
	if got := v.Coreness(0); got != 1 {
		t.Fatalf("view read after delete = %v, want floor estimate 1", got)
	}
	if v.Epoch() != 2 {
		t.Fatalf("view epoch after re-pin = %d, want 2", v.Epoch())
	}
}

// TestViewEpochMatchesRecordedStates is the epoch-semantics stress test: a
// single updater walks a small graph through many distinct states,
// recording the exact per-epoch estimate vector at every batch boundary,
// while concurrent readers sample CorenessMany through fresh views. Every
// sample must be bit-identical to the recorded vector of the epoch it
// reports — a sample mixing values from two different batch boundaries
// matches no recorded vector and fails. Run with -race in CI.
func TestViewEpochMatchesRecordedStates(t *testing.T) {
	const n = 32
	d, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]uint32, n)
	for i := range all {
		all[i] = uint32(i)
	}

	// snapshots[e] is the estimate vector at epoch e, recorded by the
	// updater at the boundary (it is the only updater, so its own reads
	// between batches are the committed state).
	snapshots := make(map[uint64][]float64)
	record := func() {
		vals := make([]float64, n)
		for i, u := range all {
			vals[i] = d.Coreness(u)
		}
		snapshots[d.Epoch()] = vals
	}
	record() // epoch 0: empty graph
	d.InsertEdges(ring(n))
	record() // epoch 1: ring

	type sample struct {
		epoch uint64
		vals  []float64
	}
	const readers = 3
	samples := make([][]sample, readers)
	var counts [readers]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last sample
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := d.View()
				vals := v.CorenessMany(all)
				e := v.Epoch()
				if last.vals != nil && last.epoch == e {
					// Same epoch ⇒ identical committed state: check inline
					// instead of storing every redundant sample.
					for i := range vals {
						if vals[i] != last.vals[i] {
							t.Errorf("reader %d: epoch %d served %v then %v for vertex %d",
								r, e, last.vals[i], vals[i], i)
							return
						}
					}
				} else {
					last = sample{epoch: e, vals: vals}
					samples[r] = append(samples[r], last)
				}
				counts[r].Add(1)
			}
		}(r)
	}

	// Updater: slide a clique window around the ring, inserting and then
	// deleting it, so consecutive boundaries have distinct estimate
	// vectors at changing positions.
	iters := 120
	if testing.Short() {
		iters = 40
	}
	window := func(k int) []Edge {
		base := uint32((k * 5) % n)
		var out []Edge
		for i := uint32(0); i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				out = append(out, Edge{U: (base + i) % n, V: (base + j) % n})
			}
		}
		return out
	}
	for k := 0; k < iters; k++ {
		w := window(k / 2)
		if k%2 == 0 {
			d.InsertEdges(w)
		} else {
			d.DeleteEdges(w)
		}
		record()
		runtime.Gosched() // single-core schedulers: let readers sample mid-run
	}
	// Keep the final state live until every reader has sampled at least
	// once (on one core most sampling happens here; the checks still cover
	// whatever interleavings occurred during the update loop).
	for r := 0; r < readers; r++ {
		for counts[r].Load() == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()

	checked := 0
	for r := range samples {
		for _, s := range samples[r] {
			want, ok := snapshots[s.epoch]
			if !ok {
				t.Fatalf("reader %d observed unrecorded epoch %d", r, s.epoch)
			}
			for i := range want {
				if s.vals[i] != want[i] {
					t.Fatalf("reader %d, epoch %d: vertex %d = %v, recorded boundary value %v (torn multi-read)",
						r, s.epoch, i, s.vals[i], want[i])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no reader samples collected")
	}
	t.Logf("verified %d multi-reads against %d recorded boundaries", checked, len(snapshots))
}

// TestViewShardedEpochConsistency verifies the cross-shard epoch under
// concurrent batch updates: any two view reads (CorenessMany or TopK) that
// report the same epoch must have observed the identical committed state,
// and every read reports exactly one epoch. Run with -race in CI.
func TestViewShardedEpochConsistency(t *testing.T) {
	const n = 128
	d, err := New(n, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	all := make([]uint32, n)
	for i := range all {
		all[i] = uint32(i)
	}

	iters := 60
	if testing.Short() {
		iters = 20
	}

	// Concurrent writers: one grows/shrinks cliques, one churns a ring —
	// legal concurrency in sharded mode.
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for k := 0; k < iters; k++ {
			c := clique(8 + k%24)
			d.InsertEdges(c)
			d.DeleteEdges(c[:len(c)/2])
			runtime.Gosched()
		}
	}()
	go func() {
		defer writers.Done()
		for k := 0; k < iters; k++ {
			r := ring(n)
			if k%2 == 0 {
				d.InsertEdges(r)
			} else {
				d.DeleteEdges(r)
			}
			runtime.Gosched()
		}
	}()

	type sample struct {
		epoch uint64
		vals  []float64
		top   []uint32
	}
	const readers = 3
	samples := make([][]sample, readers)
	var counts [readers]atomic.Int64
	done := make(chan struct{})
	go func() {
		writers.Wait()
		// Keep reads flowing against the settled state until every reader
		// has sampled at least once (single-core schedulers can starve the
		// readers while the writers run).
		for r := 0; r < readers; r++ {
			for counts[r].Load() == 0 {
				runtime.Gosched()
			}
		}
		close(done)
	}()
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			var lastEpoch uint64
			var lastVals, lastTop sample
			for {
				select {
				case <-done:
					return
				default:
				}
				v := d.View()
				vals := v.CorenessMany(all)
				e1 := v.Epoch()
				if e1 < lastEpoch {
					t.Errorf("reader %d: epoch went backwards %d -> %d", r, lastEpoch, e1)
					return
				}
				lastEpoch = e1
				top := v.TopK(5)
				if lastVals.vals != nil && lastVals.epoch == e1 {
					// Redundant same-epoch sample: verify inline, don't store.
					for i := range vals {
						if vals[i] != lastVals.vals[i] {
							t.Errorf("reader %d: epoch %d served two values for vertex %d: %v vs %v",
								r, e1, i, lastVals.vals[i], vals[i])
							return
						}
					}
				} else {
					lastVals = sample{epoch: e1, vals: vals}
					samples[r] = append(samples[r], lastVals)
				}
				e2 := v.Epoch()
				if lastTop.top != nil && lastTop.epoch == e2 {
					for i := range top {
						if top[i] != lastTop.top[i] {
							t.Errorf("reader %d: epoch %d served two rankings: %v vs %v",
								r, e2, lastTop.top, top)
							return
						}
					}
				} else {
					lastTop = sample{epoch: e2, top: top}
					samples[r] = append(samples[r], lastTop)
				}
				counts[r].Add(1)
			}
		}(r)
	}
	rg.Wait()

	// Group by epoch: equal epochs ⇒ identical committed state ⇒ identical
	// values and rankings.
	valsByEpoch := make(map[uint64][]float64)
	topByEpoch := make(map[uint64][]uint32)
	total := 0
	for r := range samples {
		for _, s := range samples[r] {
			total++
			if s.vals != nil {
				if prev, ok := valsByEpoch[s.epoch]; ok {
					for i := range prev {
						if prev[i] != s.vals[i] {
							t.Fatalf("epoch %d served two different values for vertex %d: %v vs %v",
								s.epoch, i, prev[i], s.vals[i])
						}
					}
				} else {
					valsByEpoch[s.epoch] = s.vals
				}
			}
			if s.top != nil {
				if prev, ok := topByEpoch[s.epoch]; ok {
					for i := range prev {
						if prev[i] != s.top[i] {
							t.Fatalf("epoch %d served two different TopK rankings: %v vs %v",
								s.epoch, prev, s.top)
						}
					}
				} else {
					topByEpoch[s.epoch] = s.top
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no reader samples collected")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	t.Logf("verified %d reads over %d distinct epochs", total, len(valsByEpoch))
}

// TestShardedAppsQuiescent is the regression test for the sharded-mode
// panic: every apps-layer method must work on a sharded Decomposition by
// routing through the engine interface's global snapshot.
func TestShardedAppsQuiescent(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, err := New(300, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			d.InsertEdges(clique(20))
			d.InsertEdges(ring(300))

			o := d.Orient()
			if got := o.MaxOutDegree(); got != 19 {
				t.Fatalf("Orient max out-degree = %d, want 19", got)
			}
			ds := d.DensestSubgraph()
			if ds.Density < 9 { // 20-clique density 9.5
				t.Fatalf("DensestSubgraph density = %v, want >= 9", ds.Density)
			}
			colors, used := d.Color()
			if used < 20 {
				t.Fatalf("Color used %d colors, want >= 20 (20-clique)", used)
			}
			for i := 0; i < 20; i++ {
				for j := i + 1; j < 20; j++ {
					if colors[i] == colors[j] {
						t.Fatalf("clique vertices %d,%d share color %d", i, j, colors[i])
					}
				}
			}
			m := d.MaximalMatching()
			used2 := map[uint32]bool{}
			for _, e := range m {
				if used2[e.U] || used2[e.V] {
					t.Fatalf("matching reuses a vertex at %v", e)
				}
				used2[e.U], used2[e.V] = true, true
			}
			top := d.TopSpreaders(20)
			inClique := 0
			for _, v := range top {
				if v < 20 {
					inClique++
				}
			}
			if inClique != 20 {
				t.Fatalf("only %d/20 top spreaders from the clique", inClique)
			}
		})
	}
}

// TestOptionValidation covers the New-time rejection of negative option
// values and the WithShards(0)/WithShards(1) == default equivalence.
func TestOptionValidation(t *testing.T) {
	if _, err := New(10, WithShards(-1)); err == nil {
		t.Fatal("want error for WithShards(-1)")
	}
	if _, err := New(10, WithWorkers(-2)); err == nil {
		t.Fatal("want error for WithWorkers(-2)")
	}
	for _, p := range []int{0, 1} {
		d, err := New(10, WithShards(p))
		if err != nil {
			t.Fatalf("WithShards(%d): %v", p, err)
		}
		if got := d.Shards(); got != 1 {
			t.Fatalf("WithShards(%d).Shards() = %d, want 1 (single engine)", p, got)
		}
	}
}

// BenchmarkViewCorenessMany measures the epoch-pinned bulk-read path: view
// creation plus a 64-vertex CorenessMany on a loaded structure.
func BenchmarkViewCorenessMany(b *testing.B) {
	d, err := New(10000)
	if err != nil {
		b.Fatal(err)
	}
	d.InsertEdges(clique(120))
	ids := make([]uint32, 64)
	for i := range ids {
		ids[i] = uint32(i * 150)
	}
	out := make([]float64, len(ids))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := d.View()
		v.CorenessManyInto(ids, out)
	}
}

// BenchmarkViewCoreness measures the floating single-vertex read: view
// creation plus one Coreness on a loaded structure, with one and two
// shards.
func BenchmarkViewCoreness(b *testing.B) {
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			d, err := New(10000, WithShards(p))
			if err != nil {
				b.Fatal(err)
			}
			d.InsertEdges(clique(120))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.View().Coreness(uint32(i % 120))
			}
		})
	}
}

// BenchmarkViewTopK measures a full epoch-pinned ranking pass.
func BenchmarkViewTopK(b *testing.B) {
	d, err := New(10000)
	if err != nil {
		b.Fatal(err)
	}
	d.InsertEdges(clique(120))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.View().TopK(10)
	}
}
