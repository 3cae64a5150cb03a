package main

import (
	"fmt"
	"math"
)

// Workload names. Later issues cite them; they must match BENCHMARK.json.
const (
	wLib     = "lib_async_reads"
	wIngest  = "svc_ingest_durable"
	wReplica = "svc_replica_reads"
	wFeed    = "svc_history_feed"
)

var workloadNames = []string{wLib, wIngest, wReplica, wFeed}

// sizing is the one table of load-shape constants. Every count the harness
// uses is derived from it, it is echoed into result.json, and a fixed
// (-seed, -seconds) pair therefore always generates the same operations.
//
// The per-second rates of the two closed-loop writers are nominal: they were
// measured on the 2-core box this benchmark was written on so that the fixed
// batch count takes about Seconds there. Open-loop rates are exact.
type sizing struct {
	Seconds float64 `json:"seconds"` // length of the measured phase

	// Graph, shared by all workloads: seeded Chung–Lu, a ring of PoolEdges
	// shuffled edges of which a window of PreloadEdges is live at any time.
	Vertices        int     `json:"vertices"`
	PoolEdges       int     `json:"pool_edges"`
	PreloadEdges    int     `json:"preload_edges"`
	PreloadChunk    int     `json:"preload_chunk"` // edges per preload batch
	ChungLuExponent float64 `json:"chung_lu_exponent"`

	// Reads: Zipf(ZipfS) vertex ids, ReadIDs per bulk read.
	ZipfS   float64 `json:"zipf_s"`
	ReadIDs int     `json:"read_ids"`

	// SetupRepeats is how many times set-up (start + preload + warm-up) is
	// timed per run; setup_s is their median.
	SetupRepeats int `json:"setup_repeats"`

	// The two closed-loop writers: WarmupShare of the measured batch count is
	// applied first, untimed, as the last step of set-up (the first batches
	// after an insert-only preload take several times as long as the rest);
	// throughput is the median over RateWindows equal cuts of the measured
	// phase (windowRate).
	WarmupShare float64 `json:"warmup_share"`
	RateWindows int     `json:"rate_windows"`

	// lib_async_reads: closed-loop writer and closed-loop reader, in process.
	LibBatchEdges  int     `json:"lib_batch_edges"` // inserts per batch (= deletes per batch)
	LibBatchesPerS float64 `json:"lib_batches_per_s"`
	LibRetain      int     `json:"lib_retain"`

	// svc_ingest_durable: closed-loop writer, reader paced at IngestReadsPerS.
	IngestBatchEdges  int     `json:"ingest_batch_edges"`
	IngestBatchesPerS float64 `json:"ingest_batches_per_s"`
	IngestReadsPerS   float64 `json:"ingest_reads_per_s"`
	IngestSnapshotAt  float64 `json:"ingest_snapshot_at"` // fraction of the batches before POST /snapshot

	// svc_replica_reads: both roles paced.
	ReplicaBatchEdges  int     `json:"replica_batch_edges"`
	ReplicaBatchesPerS float64 `json:"replica_batches_per_s"`
	ReplicaReadsPerS   float64 `json:"replica_reads_per_s"`

	// svc_history_feed: paced writer that follows each ack with a retired
	// read FeedDepth epochs back, one SSE subscriber.
	FeedBatchEdges  int     `json:"feed_batch_edges"`
	FeedBatchesPerS float64 `json:"feed_batches_per_s"`
	FeedRetain      int     `json:"feed_retain"`
	FeedDepth       int     `json:"feed_depth"`
	FeedCrossK      int     `json:"feed_cross_k"`
	FeedChecks      int     `json:"feed_checks"`       // sampled epochs whose SSE events are diffed against pinned reads
	FeedCheckStride int     `json:"feed_check_stride"` // the diff reads every FeedCheckStride-th vertex
}

// fullSizing is the load shape every recorded number uses.
func fullSizing(seconds float64) sizing {
	return sizing{
		Seconds:         seconds,
		Vertices:        30000,
		PoolEdges:       180000,
		PreloadEdges:    90000,
		PreloadChunk:    10000,
		ChungLuExponent: 2.4,
		ZipfS:           1.1,
		ReadIDs:         64,
		SetupRepeats:    3,
		WarmupShare:     0.1,
		RateWindows:     10,

		LibBatchEdges:  2500,
		LibBatchesPerS: 56,
		LibRetain:      8,

		IngestBatchEdges:  5000,
		IngestBatchesPerS: 26,
		IngestReadsPerS:   50,
		IngestSnapshotAt:  2.0 / 3,

		ReplicaBatchEdges:  250,
		ReplicaBatchesPerS: 60,
		ReplicaReadsPerS:   497,

		FeedBatchEdges:  500,
		FeedBatchesPerS: 40,
		FeedRetain:      16,
		FeedDepth:       8,
		FeedCrossK:      3,
		FeedChecks:      20,
		FeedCheckStride: 29,
	}
}

// smallSizing is the ~1/50 shape bench_test.go runs: a tenth of the graph
// and batch sizes, a fifth of the rates' duration.
func smallSizing() sizing {
	z := fullSizing(1)
	z.Vertices, z.PoolEdges, z.PreloadEdges, z.PreloadChunk = 3000, 18000, 9000, 3000
	z.SetupRepeats = 1
	z.LibBatchEdges, z.IngestBatchEdges = 250, 500
	z.ReplicaBatchEdges, z.FeedBatchEdges = 50, 100
	z.FeedChecks = 5
	// A one-second phase needs 200 probe reads a second to collect the 21 a
	// median is reported from; batches this small do not hold them up.
	z.IngestReadsPerS = 200
	return z
}

// count turns a per-second rate into this run's fixed operation count.
func (z sizing) count(perS float64) int {
	return max(1, int(math.Round(perS*z.Seconds)))
}

// warmup is how many untimed batches precede `batches` measured ones.
func (z sizing) warmup(batches int) int {
	return int(math.Round(z.WarmupShare * float64(batches)))
}

func (z sizing) validate() error {
	if z.Seconds <= 0 {
		return fmt.Errorf("seconds must be positive, got %v", z.Seconds)
	}
	for _, k := range []int{z.LibBatchEdges, z.IngestBatchEdges, z.ReplicaBatchEdges, z.FeedBatchEdges} {
		if k < 1 || z.PreloadEdges+k > z.PoolEdges {
			return fmt.Errorf("batch of %d edges does not fit a window of %d in a pool of %d", k, z.PreloadEdges, z.PoolEdges)
		}
	}
	return nil
}
