// Package graph provides the dynamic undirected graph substrate used by the
// level data structures, plus static CSR snapshots and edge-list I/O.
//
// The dynamic representation is a hybrid adjacency engine: each vertex
// stores its neighbours in a sorted flat []uint32 block, so Neighbors is a
// cache-friendly linear scan and batch mutation is an amortized O(deg+b)
// sorted merge. Membership is one O(log deg) binary search over the same
// block at every degree: on the update path only the batch filters ask it,
// and each is followed by the merge of the block it searched, so a faster
// lookup could not make a batch cheaper.
// Batch insertions and deletions are deduplicated, canonicalized and applied
// with one goroutine per group of endpoints, so each adjacency block is
// mutated by exactly one worker. This mirrors how the paper's GBBS-based
// implementation applies each update batch in parallel before the
// level-maintenance phase.
package graph

import (
	"cmp"
	"fmt"
	"slices"

	"kcore/internal/parallel"
)

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V uint32
}

// E is a convenience constructor for Edge.
func E(u, v uint32) Edge { return Edge{U: u, V: v} }

// Canon returns the edge with endpoints ordered so that U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// IsSelfLoop reports whether the edge connects a vertex to itself.
func (e Edge) IsSelfLoop() bool { return e.U == e.V }

// cmpEdge orders edges by (U, V).
func cmpEdge(a, b Edge) int {
	if a.U != b.U {
		return cmp.Compare(a.U, b.U)
	}
	return cmp.Compare(a.V, b.V)
}

// adjacency is one vertex's neighbourhood: a sorted flat block.
type adjacency struct {
	nbrs []uint32 // sorted ascending
}

// has reports membership by binary search.
func (a *adjacency) has(v uint32) bool {
	_, found := slices.BinarySearch(a.nbrs, v)
	return found
}

// mergeInsert merges the sorted, deduplicated, guaranteed-absent values
// vals into the sorted block in place (backward merge after a single
// amortized grow).
func (a *adjacency) mergeInsert(vals []Edge) {
	n0, m := len(a.nbrs), len(vals)
	nbrs := slices.Grow(a.nbrs, m)[:n0+m]
	i, k := n0-1, n0+m-1
	for j := m - 1; j >= 0; k-- {
		if i >= 0 && nbrs[i] > vals[j].V {
			nbrs[k] = nbrs[i]
			i--
		} else {
			nbrs[k] = vals[j].V
			j--
		}
	}
	a.nbrs = nbrs
}

// mergeDelete removes the sorted, guaranteed-present values vals from the
// sorted block with one compacting sweep.
func (a *adjacency) mergeDelete(vals []Edge) {
	nbrs := a.nbrs
	w, j := 0, 0
	for i := 0; i < len(nbrs); i++ {
		for j < len(vals) && vals[j].V < nbrs[i] {
			j++
		}
		if j < len(vals) && vals[j].V == nbrs[i] {
			j++
			continue
		}
		nbrs[w] = nbrs[i]
		w++
	}
	a.nbrs = nbrs[:w]
}

// Dynamic is an undirected dynamic graph over a fixed vertex set
// [0, NumVertices). It tolerates duplicate and missing edges in batches
// (they are filtered) and rejects self-loops.
//
// Concurrency: batch mutators (InsertEdges, DeleteEdges) must not run
// concurrently with each other or with readers of adjacency. This matches
// the paper's model, where a single parallel batch owns the graph during
// its execution and coreness readers never touch adjacency.
type Dynamic struct {
	adj      []adjacency
	numEdges int64

	// Scratch buffers reused across batches by the single updater, so
	// steady-state batch application allocates (almost) nothing.
	normBuf   []Edge
	dirBuf    []Edge
	startsBuf []int
}

// NewDynamic returns an empty dynamic graph on n vertices.
func NewDynamic(n int) *Dynamic {
	return &Dynamic{adj: make([]adjacency, n)}
}

// FromEdges builds a dynamic graph on n vertices containing the given
// edges (deduplicated, self-loops dropped).
func FromEdges(n int, edges []Edge) *Dynamic {
	g := NewDynamic(n)
	g.InsertEdges(edges)
	return g
}

// NumVertices returns the number of vertices.
func (g *Dynamic) NumVertices() int { return len(g.adj) }

// NumEdges returns the number of (undirected) edges currently present.
func (g *Dynamic) NumEdges() int64 { return g.numEdges }

// Degree returns the degree of v.
func (g *Dynamic) Degree(v uint32) int { return len(g.adj[v].nbrs) }

// HasEdge reports whether the edge (u, v) is present.
func (g *Dynamic) HasEdge(u, v uint32) bool { return g.adj[u].has(v) }

// Neighbors calls f for each neighbour of v until f returns false.
// Neighbours are visited in ascending order.
func (g *Dynamic) Neighbors(v uint32, f func(w uint32) bool) {
	for _, w := range g.adj[v].nbrs {
		if !f(w) {
			return
		}
	}
}

// NeighborSlice returns v's neighbours as a freshly allocated slice in
// ascending order. Intended for tests and deterministic iteration.
func (g *Dynamic) NeighborSlice(v uint32) []uint32 {
	return append([]uint32(nil), g.adj[v].nbrs...)
}

// normalizeBatch canonicalizes, sorts, and deduplicates a batch, dropping
// self-loops and out-of-range endpoints. The returned slice aliases the
// graph's scratch buffer and is valid until the next batch operation.
func (g *Dynamic) normalizeBatch(batch []Edge) []Edge {
	n := uint32(len(g.adj))
	out := g.normBuf[:0]
	for _, e := range batch {
		if e.IsSelfLoop() || e.U >= n || e.V >= n {
			continue
		}
		out = append(out, e.Canon())
	}
	slices.SortFunc(out, cmpEdge)
	// In-place dedup.
	w := 0
	for i, e := range out {
		if i == 0 || e != out[i-1] {
			out[w] = e
			w++
		}
	}
	g.normBuf = out
	return out[:w]
}

// InsertEdges inserts the batch into the graph and returns the canonical
// edges that were actually new (not already present, not duplicated within
// the batch, not self-loops). The returned slice is fresh and sorted by
// (U, V).
func (g *Dynamic) InsertEdges(batch []Edge) []Edge {
	norm := g.normalizeBatch(batch)
	fresh := parallel.Filter(norm, func(e Edge) bool { return !g.HasEdge(e.U, e.V) })
	g.apply(fresh, true)
	g.numEdges += int64(len(fresh))
	return fresh
}

// DeleteEdges removes the batch from the graph and returns the canonical
// edges that were actually present and removed, sorted by (U, V). The
// returned slice is fresh.
func (g *Dynamic) DeleteEdges(batch []Edge) []Edge {
	norm := g.normalizeBatch(batch)
	present := parallel.Filter(norm, func(e Edge) bool { return g.HasEdge(e.U, e.V) })
	g.apply(present, false)
	g.numEdges -= int64(len(present))
	return present
}

// apply mutates adjacency for the given canonical deduplicated edges. Each
// vertex's adjacency block is touched by exactly one worker: the directed
// copies of the batch are grouped by source vertex and groups are merged
// into the flat blocks in parallel.
func (g *Dynamic) apply(edges []Edge, insert bool) {
	// Directed copies, sorted by source. An empty batch must leave the
	// buffer empty too: LastBatchDirected reports it.
	dir := g.dirBuf[:0]
	for _, e := range edges {
		dir = append(dir, e, Edge{e.V, e.U})
	}
	g.dirBuf = dir
	if len(dir) == 0 {
		return
	}
	slices.SortFunc(dir, cmpEdge)
	// Group boundaries: positions where the source changes.
	starts := g.groupStarts(dir)
	parallel.For(len(starts), func(gi int) {
		lo := starts[gi]
		hi := len(dir)
		if gi+1 < len(starts) {
			hi = starts[gi+1]
		}
		a := &g.adj[dir[lo].U]
		if insert {
			a.mergeInsert(dir[lo:hi])
		} else {
			a.mergeDelete(dir[lo:hi])
		}
	})
}

// LastBatchDirected returns both directed copies of every edge the last
// InsertEdges or DeleteEdges call applied, sorted by (U, V) — the neighbours
// a vertex gained or lost in that batch are one binary search away. It is
// empty when that call applied nothing. The slice aliases the graph's
// scratch buffer: it must not be modified and is valid until the next batch
// operation.
func (g *Dynamic) LastBatchDirected() []Edge { return g.dirBuf }

// groupStarts returns the index of the first directed edge of each distinct
// source vertex in the sorted directed edge list. The result aliases the
// graph's scratch buffer.
func (g *Dynamic) groupStarts(dir []Edge) []int {
	starts := g.startsBuf[:0]
	for i := range dir {
		if i == 0 || dir[i].U != dir[i-1].U {
			starts = append(starts, i)
		}
	}
	g.startsBuf = starts
	return starts
}

// Edges returns all edges in canonical form, sorted by (U, V). Since every
// adjacency block is sorted, the output needs no extra sorting pass.
func (g *Dynamic) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for u := range g.adj {
		for _, v := range g.adj[u].nbrs {
			if uint32(u) < v {
				out = append(out, Edge{uint32(u), v})
			}
		}
	}
	return out
}

// CSR is a static compressed-sparse-row snapshot of an undirected graph.
// Offsets has length NumVertices+1; the neighbours of v are
// Targets[Offsets[v]:Offsets[v+1]], sorted ascending.
type CSR struct {
	Offsets []int64
	Targets []uint32
}

// NumVertices returns the number of vertices in the snapshot.
func (c *CSR) NumVertices() int { return len(c.Offsets) - 1 }

// NumEdges returns the number of undirected edges in the snapshot.
func (c *CSR) NumEdges() int64 { return int64(len(c.Targets)) / 2 }

// Degree returns the degree of v.
func (c *CSR) Degree(v uint32) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

// Neighbors returns the sorted neighbour slice of v (a view, do not mutate).
func (c *CSR) Neighbors(v uint32) []uint32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// Snapshot builds a CSR snapshot of the current graph state. Adjacency
// blocks are already sorted, so this is a straight parallel copy.
func (g *Dynamic) Snapshot() *CSR {
	n := len(g.adj)
	offs := make([]int64, n+1)
	var total int64
	for i := 0; i < n; i++ {
		offs[i] = total
		total += int64(len(g.adj[i].nbrs))
	}
	offs[n] = total
	targets := make([]uint32, total)
	parallel.For(n, func(i int) {
		copy(targets[offs[i]:offs[i+1]], g.adj[i].nbrs)
	})
	return &CSR{Offsets: offs, Targets: targets}
}

// CSRFromEdges builds a CSR directly from an edge list on n vertices.
// Duplicates and self-loops are removed.
func CSRFromEdges(n int, edges []Edge) *CSR {
	return FromEdges(n, edges).Snapshot()
}

// FromCSR rebuilds a dynamic graph from a CSR snapshot — the inverse of
// Snapshot, used by durability recovery. Adjacency rows are copied in
// parallel (CSR rows are already sorted). The snapshot must be well-formed
// (symmetric, sorted, no self-loops); Validate can verify the result.
func FromCSR(c *CSR) *Dynamic {
	n := c.NumVertices()
	g := NewDynamic(n)
	parallel.For(n, func(i int) {
		if row := c.Neighbors(uint32(i)); len(row) > 0 {
			g.adj[i].nbrs = append([]uint32(nil), row...)
		}
	})
	g.numEdges = c.NumEdges()
	return g
}

// Validate checks internal consistency: sortedness and uniqueness of every
// adjacency block, symmetry and the edge count.
// It is used by tests and returns a descriptive error on failure.
func (g *Dynamic) Validate() error {
	var count int64
	for u := range g.adj {
		a := &g.adj[u]
		for i, v := range a.nbrs {
			if v == uint32(u) {
				return fmt.Errorf("self-loop at %d", u)
			}
			if i > 0 && a.nbrs[i-1] >= v {
				return fmt.Errorf("adjacency of %d unsorted or duplicated at %d", u, v)
			}
			if !g.HasEdge(v, uint32(u)) {
				return fmt.Errorf("asymmetric edge (%d,%d)", u, v)
			}
			count++
		}
	}
	if count%2 != 0 {
		return fmt.Errorf("odd directed edge count %d", count)
	}
	if count/2 != g.numEdges {
		return fmt.Errorf("edge count drift: counted %d, recorded %d", count/2, g.numEdges)
	}
	return nil
}
