package main

import (
	"fmt"
	"math"

	"kcore"
	"kcore/internal/exact"
	"kcore/internal/graph"
	"kcore/internal/stats"
)

// checkApprox compares a served full-graph coreness vector with the exact
// coreness of the live edge set. It returns the mean of max(est/k, k/est)
// over vertices with k > 0, and an error if any estimate is outside the
// approximation factor. On a sharded engine an estimate is that of the
// vertex's owning shard's subgraph, which is only bounded from above (see
// kcore.WithShards), so the lower side is checked for one shard only.
func checkApprox(n int, live []graph.Edge, est []float64, factor float64, shards int) (float64, error) {
	if len(est) != n {
		return 0, fmt.Errorf("full read returned %d of %d vertices", len(est), n)
	}
	core := exact.Parallel(graph.CSRFromEdges(n, live))
	const slack = 1e-9
	var sum float64
	var count int
	for v, k := range core {
		if k <= 0 {
			continue
		}
		e := est[v]
		if !(e > 0) {
			return 0, fmt.Errorf("vertex %d: estimate %v for exact coreness %d", v, e, k)
		}
		if e > factor*float64(k)*(1+slack) {
			return 0, fmt.Errorf("vertex %d: estimate %v above %.3g x exact coreness %d", v, e, factor, k)
		}
		if shards == 1 && float64(k) > factor*e*(1+slack) {
			return 0, fmt.Errorf("vertex %d: estimate %v below exact coreness %d / %.3g", v, e, k, factor)
		}
		sum += stats.RatioError(e, k)
		count++
	}
	if count == 0 {
		return 0, fmt.Errorf("no vertex has positive coreness")
	}
	return sum / float64(count), nil
}

// reference replays the run's whole update stream (preload, then `batches`
// batches of k) into an in-process Decomposition of the same shape, and
// returns its final full-graph read and epoch. A server that was fed the
// same requests must serve exactly these bytes at exactly this epoch.
func reference(in *inputs, shards, batches, k int) ([]float64, uint64, float64, error) {
	d, err := kcore.New(in.z.Vertices, kcore.WithShards(shards), kcore.WithWorkers(1))
	if err != nil {
		return nil, 0, 0, err
	}
	defer d.Close()
	for _, chunk := range in.preload() {
		d.InsertEdges(toPublic(chunk))
	}
	for i := 0; i < batches; i++ {
		ins, del := in.batch(i, k)
		d.ApplyBatch(toPublic(ins), toPublic(del))
	}
	v := d.View()
	return v.CorenessMany(in.allVertices()), v.Epoch(), d.ApproxFactor(), nil
}

// sameVector reports the first position at which two coreness vectors are
// not bit-identical.
func sameVector(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d vs %d values", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s: vertex %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}
