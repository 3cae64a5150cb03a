package graph

import (
	"math/rand"
	"testing"
)

// benchGraph builds a graph with n vertices and ~m random edges, returning
// the graph and the (canonical, deduplicated) edges actually inserted.
func benchGraph(n, m int, seed int64) (*Dynamic, []Edge) {
	rng := rand.New(rand.NewSource(seed))
	batch := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u != v {
			batch = append(batch, Edge{U: u, V: v})
		}
	}
	g := NewDynamic(n)
	fresh := g.InsertEdges(batch)
	return g, fresh
}

// BenchmarkNeighborsWalk measures a full adjacency walk over every vertex —
// the inner loop of countAtLeast, desireLevel, invariant checks and the
// CPLDS trigger scan.
func BenchmarkNeighborsWalk(b *testing.B) {
	const n, m = 20000, 200000
	g, _ := benchGraph(n, m, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		for v := uint32(0); v < n; v++ {
			g.Neighbors(v, func(w uint32) bool {
				sum += uint64(w)
				return true
			})
		}
	}
	benchSink = sum
}

// BenchmarkHasEdge measures membership probes against present and absent
// edges.
func BenchmarkHasEdge(b *testing.B) {
	const n, m = 20000, 200000
	g, fresh := benchGraph(n, m, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		e := fresh[i%len(fresh)]
		if g.HasEdge(e.U, e.V) {
			hits++
		}
		if g.HasEdge(e.U^1, e.V^3) {
			hits++
		}
	}
	benchSink = uint64(hits)
}

// BenchmarkHasEdgeHighDegree probes membership on a single hub of degree
// 200 k: the deepest binary search the batch filters can meet.
func BenchmarkHasEdgeHighDegree(b *testing.B) {
	const n = 200000
	g := NewDynamic(n)
	batch := make([]Edge, 0, n-1)
	for v := uint32(1); v < n; v++ {
		batch = append(batch, Edge{U: 0, V: v})
	}
	g.InsertEdges(batch)
	b.ReportAllocs()
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		if g.HasEdge(0, uint32(1+i%(n-1))) {
			hits++
		}
	}
	benchSink = uint64(hits)
}

// BenchmarkInsertDeleteBatch measures steady-state batch mutation: the same
// block of edges is alternately deleted and re-inserted, so the graph (and
// any internal capacity) reaches a fixed point and the measured allocations
// are the per-batch steady state.
func BenchmarkInsertDeleteBatch(b *testing.B) {
	const n, m, batchSize = 20000, 200000, 10000
	g, fresh := benchGraph(n, m, 3)
	block := fresh[:batchSize]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DeleteEdges(block)
		g.InsertEdges(block)
	}
}

// BenchmarkSnapshot measures CSR snapshot construction.
func BenchmarkSnapshot(b *testing.B) {
	const n, m = 20000, 200000
	g, _ := benchGraph(n, m, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCSR = g.Snapshot()
	}
}

var (
	benchSink uint64
	benchCSR  *CSR
)
