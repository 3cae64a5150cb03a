package kcore

import (
	"math"
	"sync"
	"testing"

	"kcore/internal/gen"
)

// TestIntegrationChurnIsDeterministic drives one churn stream — shuffled
// 800-edge insertion batches of the tiny profile, each followed by the
// deletion of a quarter of the batch inserted two batches earlier — through
// two fresh decompositions at each of one and three shards. The two builds
// at one shard count must end at the same epoch with identical coreness
// vectors read at the same epoch, both shard counts must end with the same
// edge count, and every build must pass its invariant check.
func TestIntegrationChurnIsDeterministic(t *testing.T) {
	edges, n, err := gen.DatasetByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	type op struct {
		del   bool
		edges []Edge
	}
	var ops []op
	var pending [][]Edge
	for _, b := range gen.Batches(gen.Shuffle(edges, 17), 800) {
		es := make([]Edge, len(b))
		for i, e := range b {
			es[i] = Edge{U: e.U, V: e.V}
		}
		ops = append(ops, op{edges: es})
		pending = append(pending, es[:len(es)/4])
		if len(pending) > 2 {
			ops = append(ops, op{del: true, edges: pending[0]})
			pending = pending[1:]
		}
	}
	for _, es := range pending {
		ops = append(ops, op{del: true, edges: es})
	}

	all := make([]uint32, n)
	for v := range all {
		all[v] = uint32(v)
	}
	var oneShardEdges int64
	for _, p := range []int{1, 3} {
		var ds [2]*Decomposition
		for i := range ds {
			d, err := New(n, WithShards(p))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for _, op := range ops {
				if op.del {
					d.DeleteEdges(op.edges)
				} else {
					d.InsertEdges(op.edges)
				}
			}
			if err := d.Check(); err != nil {
				t.Fatalf("shards=%d build %d: %v", p, i, err)
			}
			ds[i] = d
		}
		if a, b := ds[0].Epoch(), ds[1].Epoch(); a != b {
			t.Fatalf("shards=%d: epochs %d and %d", p, a, b)
		}
		va, vb := ds[0].View(), ds[1].View()
		ca, cb := va.CorenessMany(all), vb.CorenessMany(all)
		if va.Epoch() != vb.Epoch() {
			t.Fatalf("shards=%d: views read epochs %d and %d", p, va.Epoch(), vb.Epoch())
		}
		for v := range ca {
			if ca[v] != cb[v] {
				t.Fatalf("shards=%d: coreness of %d is %v and %v", p, v, ca[v], cb[v])
			}
		}
		if p == 1 {
			oneShardEdges = ds[0].NumEdges()
		}
		for i, d := range ds {
			if d.NumEdges() != oneShardEdges {
				t.Fatalf("shards=%d build %d: %d edges, one shard %d", p, i, d.NumEdges(), oneShardEdges)
			}
		}
	}
}

// TestIntegrationEstimatesTrackExactUnderChurn drives the full stack —
// batched inserts and deletes with concurrent readers — and verifies at
// several quiescent checkpoints that every estimate is within the provable
// factor of the true coreness.
func TestIntegrationEstimatesTrackExactUnderChurn(t *testing.T) {
	const n = 600
	d, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	edges := clique(30)               // dense center
	edges = append(edges, ring(n)...) // sparse shell
	// Churn phases: insert all, delete center, re-insert center.
	phases := [][2]string{{"insert", "all"}, {"delete", "clique"}, {"insert", "clique"}}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d.Coreness(uint32(i % n))
			}
		}()
	}
	cliqueEdges := edges[:len(clique(30))]
	bound := d.ApproxFactor()*(1+0.2) + 1e-9
	for _, ph := range phases {
		switch {
		case ph[0] == "insert" && ph[1] == "all":
			d.InsertEdges(edges)
		case ph[0] == "delete":
			d.DeleteEdges(cliqueEdges)
		default:
			d.InsertEdges(cliqueEdges)
		}
		exact := d.ExactCoreness()
		for v := 0; v < n; v++ {
			if exact[v] == 0 {
				continue
			}
			est := d.Coreness(uint32(v))
			r := math.Max(est/float64(exact[v]), float64(exact[v])/math.Max(est, 1))
			if r > bound {
				t.Fatalf("phase %v: vertex %d estimate %.2f vs exact %d (ratio %.2f)",
					ph, v, est, exact[v], r)
			}
		}
		if err := d.Check(); err != nil {
			t.Fatalf("phase %v: %v", ph, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestIntegrationRemoveVertex checks vertex removal end to end.
func TestIntegrationRemoveVertex(t *testing.T) {
	d, _ := New(40)
	d.InsertEdges(clique(10))
	before := d.NumEdges()
	removed := d.RemoveVertex(3)
	if removed != 9 {
		t.Fatalf("removed %d edges, want 9", removed)
	}
	if d.NumEdges() != before-9 {
		t.Fatalf("edges after removal: %d", d.NumEdges())
	}
	if d.Degree(3) != 0 {
		t.Fatalf("vertex 3 degree %d after removal", d.Degree(3))
	}
	exact := d.ExactCoreness()
	if exact[3] != 0 {
		t.Fatalf("removed vertex coreness %d", exact[3])
	}
	// Remaining clique on 9 vertices: coreness 8.
	if exact[0] != 8 {
		t.Fatalf("remaining clique coreness %d, want 8", exact[0])
	}
	if d.RemoveVertex(999) != 0 {
		t.Fatal("out-of-range removal should be a no-op")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationAppsPipeline runs the application layer against a
// dynamically built graph and cross-validates the structural guarantees.
func TestIntegrationAppsPipeline(t *testing.T) {
	d, _ := New(400)
	d.InsertEdges(clique(25))
	d.InsertEdges(ring(400))

	exact := d.ExactCoreness()
	degen := int32(0)
	for _, c := range exact {
		if c > degen {
			degen = c
		}
	}
	if o := d.Orient(); int32(o.MaxOutDegree()) > degen {
		t.Fatalf("orientation out-degree %d > degeneracy %d", o.MaxOutDegree(), degen)
	}
	if _, colors := d.Color(); int32(colors) > degen+1 {
		t.Fatalf("coloring used %d colors, degeneracy+1 = %d", colors, degen+1)
	}
	ds := d.DensestSubgraph()
	if ds.Density < float64(degen)/2 {
		t.Fatalf("densest density %.2f < degeneracy/2", ds.Density)
	}
	m := d.MaximalMatching()
	if len(m) == 0 {
		t.Fatal("empty matching on a dense graph")
	}
}
