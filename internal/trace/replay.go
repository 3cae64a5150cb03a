package trace

import (
	"fmt"
	"time"

	"kcore/internal/lds"
	"kcore/internal/shard"
	"kcore/internal/stats"
)

// ReplayResult reports the outcome of replaying a trace.
type ReplayResult struct {
	Ops          int
	EdgesApplied int64
	UpdateTime   time.Duration
	ReadLat      stats.Summary
	FinalEdges   int64
}

// Replay runs a trace against a fresh engine with the given shard count
// (one shard is a single CPLDS; shards < 1 means one): updates go through the
// engine's Insert/Delete from one sequential submitter, so the replay
// reproduces the recorded operation order exactly, and reads through the
// owning shard's lock-free protocol on the replaying goroutine. Update
// batches and individual reads are timed.
func Replay(t *Trace, params lds.Params, shards int) (ReplayResult, error) {
	e := shard.New(t.NumVertices, shards, params)
	var res ReplayResult
	rec := stats.NewLatencyRecorder(1 << 12)
	for i, op := range t.Ops {
		switch op.Kind {
		case OpInsert:
			t0 := time.Now()
			res.EdgesApplied += int64(e.Insert(op.Edges))
			res.UpdateTime += time.Since(t0)
		case OpDelete:
			t0 := time.Now()
			res.EdgesApplied += int64(e.Delete(op.Edges))
			res.UpdateTime += time.Since(t0)
		case OpRead:
			for _, v := range op.Vertices {
				if int(v) >= t.NumVertices {
					return res, fmt.Errorf("trace: read of out-of-range vertex %d at op %d", v, i)
				}
				t0 := time.Now()
				e.Read(v)
				rec.Record(time.Since(t0))
			}
		default:
			return res, fmt.Errorf("trace: unknown op kind %d at op %d", op.Kind, i)
		}
		res.Ops++
	}
	res.ReadLat = rec.Summarize()
	res.FinalEdges = e.NumEdges()
	if err := e.CheckInvariants(); err != nil {
		return res, fmt.Errorf("trace: invariants violated after replay: %w", err)
	}
	return res, nil
}
