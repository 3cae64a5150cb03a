package parallel

import (
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSetWorkers(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(7)
	if Workers() != 7 {
		t.Fatalf("Workers() = %d, want 7", Workers())
	}
	SetWorkers(0) // resets to GOMAXPROCS
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 10, minGrain - 1, minGrain, minGrain + 1, 10000} {
		seen := make([]int32, n)
		ForWith(4, n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForWithOneWorkerIsSequential(t *testing.T) {
	order := make([]int, 0, 100)
	ForWith(1, 100, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order violated at %d: got %d", i, v)
		}
	}
}

func TestBlockedForPartition(t *testing.T) {
	for _, n := range []int{0, 1, minGrain * 3, 12345} {
		var total atomic.Int64
		seen := make([]int32, n)
		BlockedForWith(3, n, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
			}
			total.Add(int64(hi - lo))
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		if total.Load() != int64(n) {
			t.Fatalf("n=%d: covered %d iterations", n, total.Load())
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Bool
	Do(
		func() { a.Store(true) },
		func() { b.Store(true) },
		func() { c.Store(true) },
	)
	if !a.Load() || !b.Load() || !c.Load() {
		t.Fatal("not all thunks ran")
	}
	Do() // no-op
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Fatal("single thunk did not run")
	}
}

func scanRef(xs []int) ([]int, int) {
	out := make([]int, len(xs))
	sum := 0
	for i, x := range xs {
		out[i] = sum
		sum += x
	}
	return out, sum
}

func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 10, minGrain, minGrain*7 + 13} {
		orig := make([]int, n)
		for i := range orig {
			orig[i] = rng.Intn(100)
		}
		wantArr, wantTotal := scanRef(orig)
		for _, w := range []int{1, 3, 8} {
			xs := append([]int(nil), orig...)
			total := ScanWith(w, xs)
			if total != wantTotal {
				t.Fatalf("n=%d w=%d: total %d want %d", n, w, total, wantTotal)
			}
			if n > 0 && !reflect.DeepEqual(xs, wantArr) {
				t.Fatalf("n=%d w=%d: scan mismatch", n, w)
			}
		}
	}
}

func TestScanProperty(t *testing.T) {
	f := func(xs []int) bool {
		if len(xs) == 0 {
			return true
		}
		// Bound values to avoid overflow noise.
		for i := range xs {
			xs[i] &= 0xffff
		}
		want, wantTotal := scanRef(xs)
		got := append([]int(nil), xs...)
		total := ScanWith(4, got)
		return total == wantTotal && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFilter(t *testing.T) {
	for _, n := range []int{0, 1, 100, minGrain * 4} {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i
		}
		got := Filter(xs, func(x int) bool { return x%3 == 0 })
		want := make([]int, 0)
		for _, x := range xs {
			if x%3 == 0 {
				want = append(want, x)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: filter mismatch: got %d elems want %d", n, len(got), len(want))
		}
	}
}

func TestFilterAllAndNone(t *testing.T) {
	xs := make([]int, minGrain*2)
	for i := range xs {
		xs[i] = i
	}
	if got := Filter(xs, func(int) bool { return true }); len(got) != len(xs) {
		t.Fatalf("filter all: got %d", len(got))
	}
	if got := Filter(xs, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("filter none: got %d", len(got))
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 100, sortSeqCutoff + 1, sortSeqCutoff*4 + 17} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(1000))
		}
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range []int{1, 4} {
			got := append([]int64(nil), xs...)
			SortWith(w, got, func(a, b int64) bool { return a < b })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d w=%d: sort mismatch", n, w)
			}
		}
	}
}

func TestSortStability(t *testing.T) {
	type kv struct{ k, pos int }
	n := sortSeqCutoff * 3
	xs := make([]kv, n)
	rng := rand.New(rand.NewSource(4))
	for i := range xs {
		xs[i] = kv{k: rng.Intn(10), pos: i}
	}
	SortWith(4, xs, func(a, b kv) bool { return a.k < b.k })
	for i := 1; i < n; i++ {
		if xs[i-1].k == xs[i].k && xs[i-1].pos > xs[i].pos {
			t.Fatalf("stability violated at %d", i)
		}
		if xs[i-1].k > xs[i].k {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(xs []int32) bool {
		got := append([]int32(nil), xs...)
		Sort(got, func(a, b int32) bool { return a < b })
		want := append([]int32(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParallelFor(b *testing.B) {
	xs := make([]int64, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BlockedForWith(Workers(), len(xs), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				xs[j]++
			}
		})
	}
}

func BenchmarkParallelSort(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	orig := make([]int64, 1<<18)
	for i := range orig {
		orig[i] = rng.Int63()
	}
	xs := make([]int64, len(orig))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, orig)
		Sort(xs, func(a, b int64) bool { return a < b })
	}
}
