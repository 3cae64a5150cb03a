// Package stats provides the measurement plumbing for the experiment
// harness: latency recorders with percentile queries (average, P99,
// P99.99 as reported in the paper's Figs. 3–4), throughput accounting, and
// the ratio-error metric of Fig. 6.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// LatencyRecorder accumulates individual operation latencies. It is NOT
// safe for concurrent use: give each reader goroutine its own recorder and
// Merge them afterwards (this also keeps the measurement path allocation-
// and contention-free, which matters when measuring sub-microsecond reads).
type LatencyRecorder struct {
	samples []time.Duration
}

// NewLatencyRecorder returns a recorder with the given initial capacity.
func NewLatencyRecorder(capacity int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]time.Duration, 0, capacity)}
}

// Record adds one latency sample.
func (r *LatencyRecorder) Record(d time.Duration) { r.samples = append(r.samples, d) }

// Count returns the number of samples recorded.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Merge appends all samples from other into r.
func (r *LatencyRecorder) Merge(other *LatencyRecorder) {
	r.samples = append(r.samples, other.samples...)
}

// Summary holds the latency statistics the paper reports.
type Summary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	P9999 time.Duration // 99.99th percentile
	Max   time.Duration
}

// Summarize computes the summary statistics; it sorts the samples in place.
func (r *LatencyRecorder) Summarize() Summary {
	n := len(r.samples)
	if n == 0 {
		return Summary{}
	}
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
	var total time.Duration
	for _, s := range r.samples {
		total += s
	}
	return Summary{
		Count: n,
		Mean:  total / time.Duration(n),
		P50:   r.samples[percentileIndex(n, 50)],
		P99:   r.samples[percentileIndex(n, 99)],
		P9999: r.samples[percentileIndex(n, 99.99)],
		Max:   r.samples[n-1],
	}
}

// percentileIndex returns the index of the p-th percentile (nearest-rank).
func percentileIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P99, s.P9999, s.Max)
}

// RatioError is the paper's Fig. 6 error metric: max(est/k, k/est) with
// both sides clamped below at 1 so that zero-coreness vertices contribute a
// well-defined error of max(est, 1).
func RatioError(est float64, k int32) float64 {
	kk := math.Max(float64(k), 1)
	ee := math.Max(est, 1)
	return math.Max(ee/kk, kk/ee)
}

// MinRatioError returns the smaller of the errors against two ground
// truths. The paper takes the minimum of the errors against the coreness at
// the beginning and at the end of the batch, since a linearizable read may
// legitimately reflect either boundary.
func MinRatioError(est float64, kPre, kPost int32) float64 {
	return math.Min(RatioError(est, kPre), RatioError(est, kPost))
}

// ErrorAccumulator tracks the average and maximum of an error series.
type ErrorAccumulator struct {
	sum   float64
	max   float64
	count int
}

// Add records one error value.
func (e *ErrorAccumulator) Add(err float64) {
	e.sum += err
	if err > e.max {
		e.max = err
	}
	e.count++
}

// Count returns the number of recorded values.
func (e *ErrorAccumulator) Count() int { return e.count }

// Mean returns the average error (1 if nothing was recorded, the metric's
// floor).
func (e *ErrorAccumulator) Mean() float64 {
	if e.count == 0 {
		return 1
	}
	return e.sum / float64(e.count)
}

// Max returns the maximum error (1 if nothing was recorded).
func (e *ErrorAccumulator) Max() float64 {
	if e.count == 0 {
		return 1
	}
	return e.max
}

// Throughput converts an operation count over an elapsed duration into
// operations per second.
func Throughput(ops int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}
