// Package parallel provides fork-join parallel primitives over goroutines.
//
// It is a small, dependency-free stand-in for the ParlayLib primitives the
// paper's C++ implementation uses, cut down to the ones this repository
// calls: parallel for (For, over blocks of indices claimed by
// BlockedForWith), fork-join (Do), filter (Filter, placed by the prefix
// sums of ScanWith) and a stable merge sort (Sort). All primitives are
// deterministic: given the same input they produce the same output
// regardless of the number of workers.
//
// Workers defaults to runtime.GOMAXPROCS(0) and can be overridden per call
// site via SetWorkers for reproducible experiments with a fixed parallelism
// degree.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the global default parallelism degree.
var defaultWorkers atomic.Int32

func init() {
	defaultWorkers.Store(int32(runtime.GOMAXPROCS(0)))
}

// SetWorkers sets the global default number of workers used by the
// primitives in this package. Values < 1 reset to GOMAXPROCS.
func SetWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultWorkers.Store(int32(n))
}

// Workers reports the current global default number of workers.
func Workers() int { return int(defaultWorkers.Load()) }

// minGrain is the smallest chunk of iterations handed to one goroutine.
// Below this, scheduling overhead dominates and we run sequentially.
const minGrain = 512

// For runs body(i) for every i in [0, n) using the default worker count.
// Iterations may run concurrently; body must be safe for concurrent calls
// on distinct indices.
func For(n int, body func(i int)) {
	ForWith(Workers(), n, body)
}

// ForWith is For with an explicit worker count.
func ForWith(workers, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n < minGrain {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	BlockedForWith(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// BlockedForWith partitions [0, n) into contiguous blocks and runs
// body(lo, hi) on each block with the given worker count, which amortizes
// dispatch when per-iteration work is tiny. Blocks are claimed dynamically
// with an atomic counter so that uneven per-block work is balanced across
// workers.
func BlockedForWith(workers, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n < minGrain {
		body(0, n)
		return
	}
	// Aim for ~8 blocks per worker for load balancing, but never smaller
	// than minGrain iterations each.
	nblocks := workers * 8
	block := (n + nblocks - 1) / nblocks
	if block < minGrain {
		block = minGrain
		nblocks = (n + block - 1) / block
	}
	if nblocks < workers {
		workers = nblocks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nblocks {
					return
				}
				lo := b * block
				hi := lo + block
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// Do runs the given thunks, possibly in parallel, and waits for all of them.
func Do(thunks ...func()) {
	switch len(thunks) {
	case 0:
		return
	case 1:
		thunks[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(thunks) - 1)
	for _, t := range thunks[1:] {
		t := t
		go func() {
			defer wg.Done()
			t()
		}()
	}
	thunks[0]()
	wg.Wait()
}

// ScanWith computes the exclusive prefix sums of xs in place with the given
// worker count and returns the total. After the call, xs[i] holds the sum
// of the original xs[0:i].
func ScanWith(workers int, xs []int) int {
	n := len(xs)
	if workers <= 1 || n < minGrain {
		sum := 0
		for i, x := range xs {
			xs[i] = sum
			sum += x
		}
		return sum
	}
	nchunks := workers * 4
	chunk := (n + nchunks - 1) / nchunks
	if chunk < minGrain {
		chunk = minGrain
		nchunks = (n + chunk - 1) / chunk
	}
	sums := make([]int, nchunks)
	BlockedForWith(workers, nchunks, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			a, b := c*chunk, (c+1)*chunk
			if b > n {
				b = n
			}
			s := 0
			for _, x := range xs[a:b] {
				s += x
			}
			sums[c] = s
		}
	})
	total := 0
	for c, s := range sums {
		sums[c] = total
		total += s
	}
	BlockedForWith(workers, nchunks, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			a, b := c*chunk, (c+1)*chunk
			if b > n {
				b = n
			}
			s := sums[c]
			for i := a; i < b; i++ {
				x := xs[i]
				xs[i] = s
				s += x
			}
		}
	})
	return total
}

// Filter returns the elements of xs for which keep is true, preserving
// order. The output is freshly allocated.
func Filter[T any](xs []T, keep func(T) bool) []T {
	n := len(xs)
	w := Workers()
	if w <= 1 || n < minGrain {
		out := make([]T, 0, n/2)
		for _, x := range xs {
			if keep(x) {
				out = append(out, x)
			}
		}
		return out
	}
	flags := make([]int, n)
	ForWith(w, n, func(i int) {
		if keep(xs[i]) {
			flags[i] = 1
		}
	})
	total := ScanWith(w, flags)
	out := make([]T, total)
	BlockedForWith(w, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var next int
			if i+1 < n {
				next = flags[i+1]
			} else {
				next = total
			}
			if next != flags[i] {
				out[flags[i]] = xs[i]
			}
		}
	})
	return out
}
