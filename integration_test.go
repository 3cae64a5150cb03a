package kcore

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"kcore/internal/lds"
	"kcore/internal/trace"
)

// TestIntegrationTraceReplayMatchesDirect replays a synthesized workload
// through the trace machinery and through direct public-API calls and
// checks that both end in the same graph state with valid invariants.
func TestIntegrationTraceReplayMatchesDirect(t *testing.T) {
	tr, err := trace.Synthesize("tiny", 1200, 30, 0.25, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize + deserialize to also exercise the binary format.
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Replay(tr2, lds.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Direct replay through the public API.
	d, err := New(tr.NumVertices)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range tr.Ops {
		es := make([]Edge, len(op.Edges))
		for i, e := range op.Edges {
			es[i] = Edge{U: e.U, V: e.V}
		}
		switch op.Kind {
		case trace.OpInsert:
			d.InsertEdges(es)
		case trace.OpDelete:
			d.DeleteEdges(es)
		case trace.OpRead:
			for _, v := range op.Vertices {
				d.Coreness(v)
			}
		}
	}
	if d.NumEdges() != res.FinalEdges {
		t.Fatalf("final edges: direct %d vs replay %d", d.NumEdges(), res.FinalEdges)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
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
