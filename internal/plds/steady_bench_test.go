package plds

import (
	"testing"

	"kcore/internal/gen"
	"kcore/internal/parallel"
)

// BenchmarkBatchSteadyState measures the steady-state batch hot path: a
// fixed block of edges is alternately deleted and re-inserted, so levels,
// adjacency capacity and the engine's scratch arenas all reach a fixed
// point. allocs/op here is the per-batch-pair steady-state allocation count
// the zero-allocation work targets; moves/op and rounds/op are the sweeps'
// level changes and level iterations per pair (CI checks they are reported).
func BenchmarkBatchSteadyState(b *testing.B) {
	const n = 20000
	edges := gen.ChungLu(n, 60000, 2.4, 7)
	p := New(n, defaultP(), nil)
	p.InsertBatch(edges)
	block := edges[:10000]
	// Warm one cycle so slice capacities settle before measurement.
	p.DeleteBatch(block)
	p.InsertBatch(block)
	before := p.SweepStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DeleteBatch(block)
		p.InsertBatch(block)
	}
	b.StopTimer()
	edgesPerOp := float64(2 * len(block))
	b.ReportMetric(edgesPerOp*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	after := p.SweepStats()
	perOp := func(ins, del int64) float64 { return float64(ins+del) / float64(b.N) }
	b.ReportMetric(perOp(after.Insert.Moves-before.Insert.Moves, after.Delete.Moves-before.Delete.Moves), "moves/op")
	b.ReportMetric(perOp(after.Insert.Rounds-before.Insert.Rounds, after.Delete.Rounds-before.Delete.Rounds), "rounds/op")
}

// BenchmarkColdStart inserts the benchmark's whole preload (benchmark/
// inputs.go: Chung–Lu, 30 000 vertices, exponent 2.4, 90 000 edges) into an
// empty structure as one batch at one worker. Neighbourhoods climb
// together here; rounds/op and moves/op show how often they stop.
func BenchmarkColdStart(b *testing.B) {
	const n = 30000
	edges := gen.Shuffle(gen.ChungLu(n, 180000, 2.4, 1), 2)[:90000]
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(1)
	var sweeps SweepCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := New(n, defaultP(), nil)
		b.StartTimer()
		p.InsertBatch(edges)
		sweeps = p.SweepStats().Insert
	}
	b.StopTimer()
	b.ReportMetric(float64(sweeps.Rounds), "rounds/op")
	b.ReportMetric(float64(sweeps.Moves), "moves/op")
}
