package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasic(t *testing.T) {
	r := NewLatencyRecorder(0)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	s := r.Summarize()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Mean != 50500*time.Nanosecond {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.P50 != 50*time.Microsecond {
		t.Fatalf("P50 = %v", s.P50)
	}
	if s.P99 != 99*time.Microsecond {
		t.Fatalf("P99 = %v", s.P99)
	}
	if s.P9999 != 100*time.Microsecond {
		t.Fatalf("P99.99 = %v", s.P9999)
	}
	if s.Max != 100*time.Microsecond {
		t.Fatalf("Max = %v", s.Max)
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

func TestSummaryEmpty(t *testing.T) {
	r := NewLatencyRecorder(4)
	s := r.Summarize()
	if s.Count != 0 || s.Mean != 0 || s.Max != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarySingle(t *testing.T) {
	r := NewLatencyRecorder(1)
	r.Record(7 * time.Millisecond)
	s := r.Summarize()
	if s.Mean != 7*time.Millisecond || s.P99 != 7*time.Millisecond || s.P9999 != 7*time.Millisecond {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestMerge(t *testing.T) {
	a := NewLatencyRecorder(0)
	b := NewLatencyRecorder(0)
	a.Record(time.Microsecond)
	b.Record(3 * time.Microsecond)
	a.Merge(b)
	if a.Count() != 2 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if s := a.Summarize(); s.Mean != 2*time.Microsecond {
		t.Fatalf("merged mean = %v", s.Mean)
	}
}

func TestPercentileIndexProperty(t *testing.T) {
	f := func(n uint16, p uint8) bool {
		nn := int(n)%10000 + 1
		pp := float64(p % 101)
		i := percentileIndex(nn, pp)
		return i >= 0 && i < nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioError(t *testing.T) {
	if got := RatioError(10, 5); got != 2 {
		t.Fatalf("RatioError(10,5) = %v", got)
	}
	if got := RatioError(5, 10); got != 2 {
		t.Fatalf("RatioError(5,10) = %v", got)
	}
	if got := RatioError(7, 7); got != 1 {
		t.Fatalf("exact estimate error = %v", got)
	}
	// Zero coreness clamps to 1.
	if got := RatioError(3, 0); got != 3 {
		t.Fatalf("RatioError(3,0) = %v", got)
	}
	if got := RatioError(0.5, 0); got != 1 {
		t.Fatalf("RatioError(0.5,0) = %v (both sides clamp to 1)", got)
	}
}

func TestRatioErrorAlwaysAtLeastOne(t *testing.T) {
	f := func(est float64, k int32) bool {
		if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			return true
		}
		return RatioError(est, k) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinRatioError(t *testing.T) {
	// est=8, pre=8 (error 1), post=2 (error 4): min is 1.
	if got := MinRatioError(8, 8, 2); got != 1 {
		t.Fatalf("MinRatioError = %v", got)
	}
	if got := MinRatioError(8, 2, 4); got != 2 {
		t.Fatalf("MinRatioError = %v", got)
	}
}

func TestErrorAccumulator(t *testing.T) {
	var e ErrorAccumulator
	if e.Mean() != 1 || e.Max() != 1 {
		t.Fatal("empty accumulator should floor at 1")
	}
	e.Add(1)
	e.Add(3)
	if e.Mean() != 2 || e.Max() != 3 || e.Count() != 2 {
		t.Fatalf("acc = mean %v max %v count %d", e.Mean(), e.Max(), e.Count())
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %v", got)
	}
	if got := Throughput(500, 250*time.Millisecond); got != 2000 {
		t.Fatalf("Throughput = %v", got)
	}
	if got := Throughput(10, 0); got != 0 {
		t.Fatalf("zero-duration throughput = %v", got)
	}
}
