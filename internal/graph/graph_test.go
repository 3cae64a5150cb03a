package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgeCanon(t *testing.T) {
	if got := (Edge{5, 2}).Canon(); got != (Edge{2, 5}) {
		t.Fatalf("Canon = %v", got)
	}
	if got := (Edge{2, 5}).Canon(); got != (Edge{2, 5}) {
		t.Fatalf("Canon of canonical = %v", got)
	}
	if !(Edge{3, 3}).IsSelfLoop() {
		t.Fatal("self-loop not detected")
	}
}

func TestInsertBasic(t *testing.T) {
	g := NewDynamic(4)
	fresh := g.InsertEdges([]Edge{{0, 1}, {1, 0}, {2, 3}, {3, 3}})
	if len(fresh) != 2 {
		t.Fatalf("fresh = %v, want 2 edges", fresh)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing or asymmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.Degree(3) != 1 {
		t.Fatalf("Degree(3) = %d", g.Degree(3))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertExistingIsFiltered(t *testing.T) {
	g := NewDynamic(3)
	g.InsertEdges([]Edge{{0, 1}})
	fresh := g.InsertEdges([]Edge{{1, 0}, {1, 2}})
	if len(fresh) != 1 || fresh[0] != (Edge{1, 2}) {
		t.Fatalf("fresh = %v", fresh)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
}

func TestDeleteBasic(t *testing.T) {
	g := NewDynamic(4)
	g.InsertEdges([]Edge{{0, 1}, {1, 2}, {2, 3}})
	removed := g.DeleteEdges([]Edge{{2, 1}, {0, 3}, {1, 2}})
	if len(removed) != 1 || removed[0] != (Edge{1, 2}) {
		t.Fatalf("removed = %v", removed)
	}
	if g.HasEdge(1, 2) {
		t.Fatal("edge not deleted")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLastBatchDirected(t *testing.T) {
	g := NewDynamic(5)
	if got := g.LastBatchDirected(); len(got) != 0 {
		t.Fatalf("fresh graph: %v", got)
	}
	g.InsertEdges([]Edge{{3, 1}, {0, 4}, {1, 0}, {0, 1}, {2, 2}})
	want := []Edge{{0, 1}, {0, 4}, {1, 0}, {1, 3}, {3, 1}, {4, 0}}
	if got := g.LastBatchDirected(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after insert: %v, want %v", got, want)
	}
	// Batches that apply nothing must not leave the previous list behind.
	g.InsertEdges([]Edge{{1, 3}, {4, 4}})
	if got := g.LastBatchDirected(); len(got) != 0 {
		t.Fatalf("after an insert of present edges: %v", got)
	}
	g.DeleteEdges([]Edge{{4, 0}, {2, 3}})
	want = []Edge{{0, 4}, {4, 0}}
	if got := g.LastBatchDirected(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after delete: %v, want %v", got, want)
	}
	g.DeleteEdges(nil)
	if got := g.LastBatchDirected(); len(got) != 0 {
		t.Fatalf("after an empty delete: %v", got)
	}
}

func TestOutOfRangeFiltered(t *testing.T) {
	g := NewDynamic(3)
	fresh := g.InsertEdges([]Edge{{0, 7}, {9, 1}, {0, 2}})
	if len(fresh) != 1 || fresh[0] != (Edge{0, 2}) {
		t.Fatalf("fresh = %v", fresh)
	}
}

func TestNeighborsIteration(t *testing.T) {
	g := NewDynamic(5)
	g.InsertEdges([]Edge{{0, 1}, {0, 2}, {0, 3}})
	seen := map[uint32]bool{}
	g.Neighbors(0, func(w uint32) bool {
		seen[w] = true
		return true
	})
	if len(seen) != 3 || !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("seen = %v", seen)
	}
	// Early termination.
	count := 0
	g.Neighbors(0, func(w uint32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
	if got := g.NeighborSlice(0); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Fatalf("NeighborSlice = %v", got)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := NewDynamic(5)
	g.InsertEdges([]Edge{{4, 0}, {2, 1}, {0, 1}})
	got := g.Edges()
	want := []Edge{{0, 1}, {0, 4}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestSnapshotCSR(t *testing.T) {
	g := NewDynamic(4)
	g.InsertEdges([]Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	csr := g.Snapshot()
	if csr.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", csr.NumVertices())
	}
	if csr.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", csr.NumEdges())
	}
	if !reflect.DeepEqual(csr.Neighbors(2), []uint32{0, 1, 3}) {
		t.Fatalf("Neighbors(2) = %v", csr.Neighbors(2))
	}
	if csr.Degree(0) != 2 || csr.Degree(3) != 1 {
		t.Fatalf("degrees wrong: %d %d", csr.Degree(0), csr.Degree(3))
	}
}

func TestCSRFromEdges(t *testing.T) {
	csr := CSRFromEdges(3, []Edge{{0, 1}, {1, 0}, {1, 1}, {1, 2}})
	if csr.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", csr.NumEdges())
	}
	if !reflect.DeepEqual(csr.Neighbors(1), []uint32{0, 2}) {
		t.Fatalf("Neighbors(1) = %v", csr.Neighbors(1))
	}
}

// model is a reference implementation using a simple map of canonical edges.
type model map[Edge]struct{}

func (m model) insert(e Edge) bool {
	if e.IsSelfLoop() {
		return false
	}
	c := e.Canon()
	if _, ok := m[c]; ok {
		return false
	}
	m[c] = struct{}{}
	return true
}

func (m model) remove(e Edge) bool {
	c := e.Canon()
	if _, ok := m[c]; !ok {
		return false
	}
	delete(m, c)
	return true
}

func TestBatchOpsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 60
	g := NewDynamic(n)
	m := model{}
	for step := 0; step < 200; step++ {
		batch := make([]Edge, rng.Intn(30))
		for i := range batch {
			batch[i] = Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
		}
		if rng.Intn(2) == 0 {
			fresh := g.InsertEdges(batch)
			want := 0
			for _, e := range dedupCanon(batch) {
				if m.insert(e) {
					want++
				}
			}
			if len(fresh) != want {
				t.Fatalf("step %d: insert count %d want %d", step, len(fresh), want)
			}
		} else {
			removed := g.DeleteEdges(batch)
			want := 0
			for _, e := range dedupCanon(batch) {
				if m.remove(e) {
					want++
				}
			}
			if len(removed) != want {
				t.Fatalf("step %d: delete count %d want %d", step, len(removed), want)
			}
		}
		if int64(len(m)) != g.NumEdges() {
			t.Fatalf("step %d: edge count %d vs model %d", step, g.NumEdges(), len(m))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for e := range m {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v in model but not graph", e)
		}
	}
}

func dedupCanon(batch []Edge) []Edge {
	seen := map[Edge]struct{}{}
	var out []Edge
	for _, e := range batch {
		if e.IsSelfLoop() {
			continue
		}
		c := e.Canon()
		if _, ok := seen[c]; ok {
			continue
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	return out
}

func TestInsertDeleteRoundTripProperty(t *testing.T) {
	f := func(raw [][2]uint8) bool {
		const n = 64
		edges := make([]Edge, len(raw))
		for i, p := range raw {
			edges[i] = Edge{uint32(p[0]) % n, uint32(p[1]) % n}
		}
		g := NewDynamic(n)
		fresh := g.InsertEdges(edges)
		removed := g.DeleteEdges(edges)
		return len(fresh) == len(removed) && g.NumEdges() == 0 && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteEdgeList(t *testing.T) {
	in := "# comment\n0 1\n\n% also comment\n2 3\n1 2\n"
	edges, n, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("n = %d", n)
	}
	want := []Edge{{0, 1}, {2, 3}, {1, 2}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("edges = %v", edges)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, edges); err != nil {
		t.Fatal(err)
	}
	back, n2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 4 || !reflect.DeepEqual(back, edges) {
		t.Fatalf("round trip mismatch: %v", back)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("want error for single-field line")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("want error for non-numeric id")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("1 -2\n")); err == nil {
		t.Fatal("want error for negative id")
	}
}

func TestLargeBatchParallelApply(t *testing.T) {
	// Exercise the parallel apply path (batch > grain size).
	const n = 2000
	rng := rand.New(rand.NewSource(13))
	batch := make([]Edge, 30000)
	for i := range batch {
		batch[i] = Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	g := NewDynamic(n)
	fresh := g.InsertEdges(batch)
	if int64(len(fresh)) != g.NumEdges() {
		t.Fatalf("count mismatch: %d vs %d", len(fresh), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	removed := g.DeleteEdges(batch)
	if len(removed) != len(fresh) || g.NumEdges() != 0 {
		t.Fatalf("delete mismatch: removed=%d fresh=%d left=%d", len(removed), len(fresh), g.NumEdges())
	}
}

func BenchmarkInsertBatch(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(17))
	batch := make([]Edge, 100000)
	for i := range batch {
		batch[i] = Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewDynamic(n)
		g.InsertEdges(batch)
	}
}
