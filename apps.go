package kcore

import (
	"kcore/internal/apps"
	"kcore/internal/graph"
)

// This file exposes the graph applications built on k-core decomposition
// that the paper lists as motivating use cases (§1) and future-work
// directions (§9): low out-degree orientation, densest-subgraph
// approximation, influential spreaders, coloring and maximal matching.
//
// The static functions operate on an explicit edge list. The Decomposition
// methods operate on a snapshot of the current global graph, so they work
// identically at every shard count (with more than one shard the engine
// reassembles the global graph from its shards' primary edge copies).
// Except for TopSpreaders, they are quiescent operations: they must not run
// concurrently with an update batch.

// Orientation is an acyclic edge orientation with provably low out-degree:
// Out[v] lists v's out-neighbours, and MaxOutDegree is at most the graph
// degeneracy.
type Orientation = apps.Orientation

// OrientLowOutDegree computes a low out-degree (degeneracy-bounded)
// orientation of a static graph via the peeling order.
func OrientLowOutDegree(n int, edges []Edge) *Orientation {
	return apps.LowOutDegreeOrientation(graph.CSRFromEdges(n, toInternal(edges)))
}

// Orient computes a low out-degree orientation of the decomposition's
// current graph (the global graph, when sharded). Quiescent operation.
func (d *Decomposition) Orient() *Orientation {
	return apps.LowOutDegreeOrientation(d.eng.Snapshot())
}

// DenseSubgraph holds an approximately densest subgraph: the vertex set
// and its edge density (edges per vertex). The density is within a factor
// of 2 of the optimum.
type DenseSubgraph = apps.DensestSubgraphResult

// DensestSubgraph returns the maximum-coreness core of the current graph
// (the global graph, when sharded), a 2-approximation of the densest
// subgraph. Quiescent operation.
func (d *Decomposition) DensestSubgraph() DenseSubgraph {
	return apps.ApproxDensestSubgraph(d.eng.Snapshot())
}

// TopSpreaders returns the k vertices with the highest approximate
// coreness (the k-shell heuristic for influential spreaders). It is served
// through an epoch-pinned View, so it is safe to call concurrently with
// update batches and the ranking reflects one committed batch boundary;
// use View.TopK directly to also learn which epoch was served.
func (d *Decomposition) TopSpreaders(k int) []uint32 {
	return d.View().TopK(k)
}

// Color greedily colors the current graph (the global graph, when sharded)
// in reverse degeneracy order, using at most degeneracy+1 colors. It
// returns the per-vertex colors and the number of colors used. Quiescent
// operation.
func (d *Decomposition) Color() ([]int32, int) {
	return apps.GreedyColoring(d.eng.Snapshot())
}

// MaximalMatching computes a maximal matching of the current graph (the
// global graph, when sharded) with parallel greedy edge claiming.
// Quiescent operation.
func (d *Decomposition) MaximalMatching() []Edge {
	m := apps.MaximalMatching(d.eng.Snapshot())
	out := make([]Edge, len(m))
	for i, e := range m {
		out[i] = Edge{U: e.U, V: e.V}
	}
	return out
}
