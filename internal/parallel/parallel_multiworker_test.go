package parallel

import (
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

// withWorkers runs f with the global worker default forced to n, so the
// parallel code paths execute even on a single-core machine (where the
// default would be 1 and every primitive would take its sequential
// fallback).
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	defer SetWorkers(old)
	f()
}

func TestForParallelPath(t *testing.T) {
	withWorkers(t, 4, func() {
		n := minGrain * 8
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d visited %d times", i, c)
			}
		}
	})
}

func TestScanParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]int, minGrain*9+37)
	for i := range xs {
		xs[i] = rng.Intn(50)
	}
	want, wantTotal := scanRef(xs)
	got := append([]int(nil), xs...)
	total := ScanWith(4, got)
	if total != wantTotal || !reflect.DeepEqual(got, want) {
		t.Fatal("parallel scan mismatch")
	}
}

func TestFilterParallelPath(t *testing.T) {
	withWorkers(t, 4, func() {
		xs := make([]int, minGrain*7)
		for i := range xs {
			xs[i] = i
		}
		got := Filter(xs, func(x int) bool { return x%5 == 0 })
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatal("filter did not preserve order")
			}
		}
		if len(got) != (len(xs)+4)/5 {
			t.Fatalf("filter kept %d", len(got))
		}
	})
}

func TestSortParallelPath(t *testing.T) {
	withWorkers(t, 4, func() {
		rng := rand.New(rand.NewSource(10))
		xs := make([]int64, sortSeqCutoff*6+11)
		for i := range xs {
			xs[i] = rng.Int63n(1000)
		}
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		Sort(xs, func(a, b int64) bool { return a < b })
		if !reflect.DeepEqual(xs, want) {
			t.Fatal("parallel sort mismatch")
		}
	})
}

func TestBlockedForSmallerThanWorkers(t *testing.T) {
	// More workers than blocks: the worker clamp path.
	var total atomic.Int64
	BlockedForWith(64, minGrain+1, func(lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != int64(minGrain+1) {
		t.Fatalf("covered %d", total.Load())
	}
}
