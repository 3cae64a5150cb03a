package kcore

import (
	"math"
	"sync"
	"testing"
)

func clique(n int) []Edge {
	var out []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Edge{uint32(i), uint32(j)})
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("want error for negative n")
	}
	if _, err := New(10, WithParams(Params{Delta: -1, Lambda: 9})); err == nil {
		t.Fatal("want error for bad params")
	}
	d, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d", d.NumVertices())
	}
	if math.Abs(d.ApproxFactor()-2.8) > 1e-9 {
		t.Fatalf("ApproxFactor = %v", d.ApproxFactor())
	}
}

func TestInsertDeleteAndCoreness(t *testing.T) {
	d, err := New(100, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	added := d.InsertEdges(clique(20))
	if added != 190 {
		t.Fatalf("added = %d", added)
	}
	if d.NumEdges() != 190 {
		t.Fatalf("NumEdges = %d", d.NumEdges())
	}
	if d.Epoch() != 1 {
		t.Fatalf("Epoch = %d", d.Epoch())
	}
	// Exact coreness of a 20-clique member is 19; the estimate must be
	// within the approximation factor.
	est := d.Coreness(0)
	if est < 19/2.8/1.2 || est > 19*2.8*1.2 {
		t.Fatalf("Coreness(0) = %v, too far from 19", est)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	removed := d.DeleteEdges(clique(20))
	if removed != 190 || d.NumEdges() != 0 {
		t.Fatalf("removed = %d, left %d", removed, d.NumEdges())
	}
	if got := d.Coreness(0); got != 1 {
		t.Fatalf("Coreness in empty graph = %v, want floor estimate 1", got)
	}
}

func TestAllReadModesQuiescent(t *testing.T) {
	d, _ := New(50)
	d.InsertEdges(clique(10))
	for v := uint32(0); v < 10; v++ {
		a, b, c := d.Coreness(v), d.CorenessNonLinearizable(v), d.CorenessBlocking(v)
		if a != b || b != c {
			t.Fatalf("read modes disagree at %d: %v %v %v", v, a, b, c)
		}
	}
}

func TestExactCoreness(t *testing.T) {
	d, _ := New(30)
	d.InsertEdges(clique(10))
	core := d.ExactCoreness()
	for v := 0; v < 10; v++ {
		if core[v] != 9 {
			t.Fatalf("exact coreness of clique vertex %d = %d", v, core[v])
		}
	}
	for v := 10; v < 30; v++ {
		if core[v] != 0 {
			t.Fatalf("isolated vertex %d coreness %d", v, core[v])
		}
	}
}

func TestStatic(t *testing.T) {
	core := Static(6, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	want := []int32{2, 2, 2, 1, 0, 0}
	for i := range want {
		if core[i] != want[i] {
			t.Fatalf("Static coreness[%d] = %d, want %d", i, core[i], want[i])
		}
	}
}

func TestDegree(t *testing.T) {
	d, _ := New(5)
	d.InsertEdges([]Edge{{0, 1}, {0, 2}})
	if d.Degree(0) != 2 || d.Degree(3) != 0 {
		t.Fatalf("degrees: %d %d", d.Degree(0), d.Degree(3))
	}
}

func TestConcurrentReadersSmoke(t *testing.T) {
	d, _ := New(200)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 3 {
				case 0:
					d.Coreness(uint32(i % 200))
				case 1:
					d.CorenessNonLinearizable(uint32(i % 200))
				case 2:
					d.CorenessBlocking(uint32(i % 200))
				}
			}
		}(r)
	}
	edges := clique(60)
	for i := 0; i < len(edges); i += 200 {
		hi := i + 200
		if hi > len(edges) {
			hi = len(edges)
		}
		d.InsertEdges(edges[i:hi])
	}
	d.DeleteEdges(edges)
	close(stop)
	wg.Wait()
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchMixed(t *testing.T) {
	d, _ := New(30)
	ins := clique(10)
	inserted, deleted := d.ApplyBatch(ins, nil)
	if inserted != 45 || deleted != 0 {
		t.Fatalf("first batch: %d/%d", inserted, deleted)
	}
	// Mixed: add a triangle elsewhere, drop part of the clique.
	tri := []Edge{{10, 11}, {11, 12}, {10, 12}}
	inserted, deleted = d.ApplyBatch(tri, ins[:20])
	if inserted != 3 || deleted != 20 {
		t.Fatalf("mixed batch: %d/%d", inserted, deleted)
	}
	if d.NumEdges() != 45-20+3 {
		t.Fatalf("NumEdges = %d", d.NumEdges())
	}
	if d.Epoch() != 3 {
		t.Fatalf("Epoch = %d (insert + mixed insert + mixed delete)", d.Epoch())
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangeEdgesIgnored(t *testing.T) {
	d, _ := New(3)
	if n := d.InsertEdges([]Edge{{0, 9}, {7, 8}, {0, 1}}); n != 1 {
		t.Fatalf("added = %d, want 1", n)
	}
}

// TestRemoveVertexConcurrentWithUpdates: RemoveVertex is an update like the
// edge-batch methods — racing it against ApplyBatch callers must neither
// race (run under -race) nor lose count, at one shard and at three. The
// updater keeps growing and pruning a star around vertex 0 while another
// goroutine keeps removing vertex 0.
func TestRemoveVertexConcurrentWithUpdates(t *testing.T) {
	const n, rounds = 64, 60
	for _, p := range []int{1, 3} {
		d, err := New(n, WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		var added, removed int64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var ins, del []Edge
				for j := 0; j < 16; j++ {
					ins = append(ins, Edge{U: 0, V: uint32(1 + (i*7+j*13)%(n-1))})
					del = append(del, Edge{U: uint32(1 + (i*5+j*11)%(n-1)), V: 0})
				}
				in, out := d.ApplyBatch(ins, del)
				added += int64(in)
				removed += int64(out)
			}
		}()
		var dropped int64
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				dropped += int64(d.RemoveVertex(0))
			}
		}()
		wg.Wait()
		dropped += int64(d.RemoveVertex(0))
		if deg := d.Degree(0); deg != 0 {
			t.Fatalf("P=%d: vertex 0 has degree %d after RemoveVertex", p, deg)
		}
		if got := d.NumEdges(); got != added-removed-dropped || got != 0 {
			t.Fatalf("P=%d: %d edges; callers saw %d added, %d deleted, %d removed with the vertex",
				p, got, added, removed, dropped)
		}
		if err := d.Check(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}
