package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer and the figure is one slow request, not a percentile.
const minBeyond = 10

// samples is a series of durations from one client role.
type samples []time.Duration

// percentile returns the nearest-rank p-th percentile of a sorted series and
// whether at least minBeyond samples lie beyond it.
func (s samples) percentile(p float64) (time.Duration, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	i := min(max(int(math.Ceil(p/100*float64(n)))-1, 0), n-1)
	return s[i], n-1-i >= minBeyond
}

func (s samples) sorted() samples {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// nsHist counts latencies at 1 ns resolution below 65.536 µs and keeps the
// rare longer ones verbatim. The in-process reader takes millions of
// samples a run; storing them all would make the library workload's peak
// RSS a function of how fast its reads are.
type nsHist struct {
	small [1 << 16]uint32
	big   samples
	n     int
}

func (h *nsHist) add(d time.Duration) {
	h.n++
	if d >= 0 && d < time.Duration(len(h.small)) {
		h.small[d]++
		return
	}
	h.big = append(h.big, d)
}

// percentile mirrors samples.percentile.
func (h *nsHist) percentile(p float64) (time.Duration, bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := min(max(int(math.Ceil(p/100*float64(h.n)))-1, 0), h.n-1)
	ok := h.n-1-rank >= minBeyond
	seen := 0
	for ns, c := range h.small {
		seen += int(c)
		if seen > rank {
			return time.Duration(ns), ok
		}
	}
	big := h.big.sorted()
	return big[rank-seen], ok
}

// pacer issues operations on a fixed schedule (an open loop): operation i is
// due at start + i*period whatever happened to operation i-1. With one
// connection per role a slow reply delays the operations behind it, and
// because each is timed from its due time that wait is counted.
type pacer struct {
	start  time.Time
	period time.Duration
	late   samples // how far behind its due time each operation was sent
}

func newPacer(start time.Time, perSecond float64) *pacer {
	return &pacer{start: start, period: time.Duration(float64(time.Second) / perSecond)}
}

// wait sleeps until operation i is due and returns its due time.
func (p *pacer) wait(i int) time.Time {
	due := p.start.Add(time.Duration(i) * p.period)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	p.late = append(p.late, max(time.Since(due), 0))
	return due
}

// latenessP99 is the generator's own lateness in ms (p99, or the maximum
// when the series is too short to have one).
func (p *pacer) latenessP99() float64 {
	s := p.late.sorted()
	if len(s) == 0 {
		return 0
	}
	d, ok := s.percentile(99)
	if !ok {
		d = s[len(s)-1]
	}
	return ms(d)
}

// windowRate is how a closed-loop role's throughput is reported: done[i] is
// when operation i completed, counted from the start of the measured phase;
// the series is cut into `windows` equal runs of operations, and the result
// is the median of the per-window rates in operations per second. A stall of
// the machine (or the one snapshot on the way) that covers less than half of
// the phase moves a mean over the whole phase but not this figure.
func windowRate(done []time.Duration, windows int) float64 {
	per := len(done) / windows
	if per < 1 {
		per, windows = len(done), 1
	}
	rates := make([]float64, 0, windows)
	var from time.Duration
	for w := 0; w < windows; w++ {
		to := done[(w+1)*per-1]
		rates = append(rates, float64(per)/(to-from).Seconds())
		from = to
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median, quartiles and relative range of a series of run values, for
// -repeat and -compare.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the method of Python's
// statistics.quantiles(v, n=4) (exclusive), which the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return median(v), median(v)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := min(max(int(math.Floor(pos)), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
