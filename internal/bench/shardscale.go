package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"kcore/internal/gen"
	"kcore/internal/shard"
	"kcore/internal/stats"
)

// ShardScalingResult is one row of the shard-scaling experiment: batch-
// update throughput (and background read throughput) of the sharded engine
// at a given shard count, with cfg.Writers concurrent client goroutines
// submitting insertion batches.
type ShardScalingResult struct {
	Dataset     string
	Shards      int
	Writers     int
	Readers     int
	Edges       int64
	Elapsed     time.Duration
	WriteAllocs uint64 // heap allocations during the write phase
	WritesPerS  float64
	ReadsPerS   float64
}

// AllocsPerEdge is the write-phase allocation count per applied edge.
func (r ShardScalingResult) AllocsPerEdge() float64 {
	if r.Edges == 0 {
		return 0
	}
	return float64(r.WriteAllocs) / float64(r.Edges)
}

// RunShardScaling measures batch-update throughput of the sharded engine
// at one shard count. Unlike RunThroughput — where a single updater owns
// the engine — the measured load here is cfg.Writers concurrent client
// goroutines racing to submit batches; the engine applies the submissions
// one after another, each split into per-shard sub-batches that distinct
// shards apply in parallel. cfg.Readers goroutines issue lock-free
// linearizable reads throughout.
func RunShardScaling(cfg Config, shards int) (ShardScalingResult, error) {
	cfg = cfg.withDefaults()
	res := ShardScalingResult{
		Dataset: cfg.Dataset, Shards: shards,
		Writers: cfg.Writers, Readers: cfg.Readers,
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		p, err := prepare(cfg)
		if err != nil {
			return res, err
		}
		batches := p.stream.Insertions
		if cfg.MaxBatches > 0 && len(batches) > cfg.MaxBatches {
			batches = batches[:cfg.MaxBatches]
		}
		eng := shard.New(p.n, shards, cfg.Params)
		eng.Insert(p.stream.Base)

		var reads atomic.Int64
		stop := make(chan struct{})
		var readerWG sync.WaitGroup
		for r := 0; r < cfg.Readers; r++ {
			readerWG.Add(1)
			w := gen.NewUniformReads(p.n, cfg.Seed+int64(trial*100+r))
			go func() {
				defer readerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					eng.Read(w.Next())
					reads.Add(1)
				}
			}()
		}

		// Concurrent submitters: writers claim batches from a shared index
		// and race their submissions into the engine.
		var next atomic.Int64
		var edges atomic.Int64
		var writerWG sync.WaitGroup
		m0 := mallocs()
		t0 := time.Now()
		for w := 0; w < cfg.Writers; w++ {
			writerWG.Add(1)
			go func() {
				defer writerWG.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(batches) {
						return
					}
					edges.Add(int64(eng.Insert(batches[i])))
				}
			}()
		}
		writerWG.Wait()
		elapsed := time.Since(t0)
		res.WriteAllocs += mallocs() - m0
		close(stop)
		readerWG.Wait()

		res.Edges += edges.Load()
		res.Elapsed += elapsed
		res.WritesPerS += stats.Throughput(edges.Load(), elapsed)
		res.ReadsPerS += stats.Throughput(reads.Load(), elapsed)
	}
	res.WritesPerS /= float64(cfg.Trials)
	res.ReadsPerS /= float64(cfg.Trials)
	return res, nil
}

// RunShardScalingAll runs RunShardScaling for every shard count.
func RunShardScalingAll(cfg Config, shardCounts []int) ([]ShardScalingResult, error) {
	out := make([]ShardScalingResult, 0, len(shardCounts))
	for _, p := range shardCounts {
		r, err := RunShardScaling(cfg, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FigureShards runs and prints the shard-scaling experiment: batch-update
// throughput of the sharded engine versus shard count, with the speedup
// over the 1-shard configuration. This is the figure row added on top of
// the paper's evaluation (the paper's Fig. 7 sweeps threads on one
// engine; this sweeps engine shards under concurrent client submissions).
func FigureShards(w io.Writer, datasets []string, shardCounts []int, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Figure 8: shard scaling — batch-update throughput vs shard count (writers=%d, readers=%d)\n",
		cfg.Writers, cfg.Readers)
	fmt.Fprintf(w, "%-10s %8s %14s %10s %14s %12s\n", "graph", "shards", "edges/s", "speedup", "reads/s", "allocs/edge")
	for _, ds := range datasets {
		c := cfg
		c.Dataset = ds
		results, err := RunShardScalingAll(c, shardCounts)
		if err != nil {
			return err
		}
		var base float64
		for _, r := range results {
			if r.Shards == 1 {
				base = r.WritesPerS
			}
		}
		for _, r := range results {
			speedup := 0.0
			if base > 0 {
				speedup = r.WritesPerS / base
			}
			fmt.Fprintf(w, "%-10s %8d %14.0f %9.2fx %14.0f %12.3f\n",
				ds, r.Shards, r.WritesPerS, speedup, r.ReadsPerS, r.AllocsPerEdge())
		}
	}
	fmt.Fprintln(w)
	return nil
}
