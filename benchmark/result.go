package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// metric is one reported figure. Samples is the number of timed operations
// behind a percentile or a rate (0 for figures that are not sampled).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced,omitempty"` // Metrics are per-layer ones
	// Metrics are the end-to-end metrics BENCHMARK.json gates; every
	// workload reports every one of them. Extras are end-to-end figures only
	// one deployment has (recovery, replication and feed delay, log size):
	// reported and checked, but outside the gated set because the driver
	// wants each gated metric from each workload.
	Metrics map[string]metric `json:"metrics"`
	Extras  map[string]metric `json:"extras,omitempty"`
	// Attempted and Failed count every operation of the measured phase and
	// of the oracle. A failed operation contributes to no latency figure.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// LatenessMsP99 is, per paced role, how late the generator itself sent
	// operations (p99 of send time minus due time).
	LatenessMsP99 map[string]float64 `json:"lateness_ms_p99,omitempty"`
	// Counts are the fixed operation counts of the run; they repeat exactly
	// for a given seed and -seconds.
	Counts map[string]int64 `json:"counts"`
	// Shares is the traced run's ranked table: per request kind, each
	// layer's self time and share.
	Shares map[string][]share `json:"layer_shares,omitempty"`
}

func newResult(workload string, seed int64) *result {
	return &result{
		Workload: workload, Seed: seed,
		Metrics: map[string]metric{}, Extras: map[string]metric{},
		LatenessMsP99: map[string]float64{}, Counts: map[string]int64{},
	}
}

// End-to-end metric names and units. The first block is the gated set.
const (
	mSetup     = "setup_s"
	mEdgesPerS = "update_edges_per_s"
	mBatchP50  = "batch_ms_p50"
	mReadP50   = "read_us_p50"
	mReadsPerS = "reads_per_s"
	mPeakRSS   = "peak_rss_mb"
	mApproxErr = "approx_err_mean"

	xReadP99      = "read_us_p99"
	xReplVisible  = "repl_visible_ms_p50"
	xFeedDelivery = "feed_delivery_ms_p50"
	xRetiredRead  = "retired_read_us_p50"
	xRecovery     = "recovery_s"
	xLogBytes     = "log_bytes_per_edge"
	xSnapshot     = "snapshot_ms"
)

var units = map[string]string{
	mSetup: "s", mEdgesPerS: "edge-ops/s", mBatchP50: "ms", mReadP50: "us",
	mReadsPerS: "1/s", mPeakRSS: "MB", mApproxErr: "ratio",
	xReadP99: "us", xReplVisible: "ms", xFeedDelivery: "ms", xRetiredRead: "us",
	xRecovery: "s", xLogBytes: "B", xSnapshot: "ms",
}

func (r *result) set(name string, value float64, samples int) {
	m := metric{Value: value, Unit: units[name], Samples: samples}
	if isGated(name) {
		r.Metrics[name] = m
	} else {
		r.Extras[name] = m
	}
}

var gated = []string{mSetup, mEdgesPerS, mBatchP50, mReadP50, mReadsPerS, mPeakRSS, mApproxErr}

func isGated(name string) bool { return slices.Contains(gated, name) }

// setPercentile reports percentile p of a sorted series through conv, or
// nothing when fewer than minBeyond samples lie beyond it.
func (r *result) setPercentile(name string, s samples, p float64, conv func(time.Duration) float64) {
	if d, ok := s.percentile(p); ok {
		r.set(name, conv(d), len(s))
	}
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed=%d traced=%v\n", r.Workload, r.Seed, r.Traced)
	for _, group := range []map[string]metric{r.Metrics, r.Extras} {
		for _, name := range sortedKeys(group) {
			m := group[name]
			fmt.Fprintf(w, "  %-22s %14.6g %-10s", name, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			if !r.Traced && !isGated(name) {
				fmt.Fprint(w, " (not gated)")
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  ops attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, role := range sortedKeys(r.LatenessMsP99) {
		fmt.Fprintf(w, "  generator lateness p99 %s = %.3f ms\n", role, r.LatenessMsP99[role])
	}
	for _, name := range sortedKeys(r.Counts) {
		fmt.Fprintf(w, "  count %s = %d\n", name, r.Counts[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
