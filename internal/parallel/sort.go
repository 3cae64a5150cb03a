package parallel

import (
	"sort"
	"sync"
)

// sortSeqCutoff is the size below which parallel sorting falls back to the
// standard library's sequential sort.
const sortSeqCutoff = 4096

// Sort sorts xs in place by less using a parallel stable merge sort.
func Sort[T any](xs []T, less func(a, b T) bool) {
	SortWith(Workers(), xs, less)
}

// SortWith is Sort with an explicit worker count.
func SortWith[T any](workers int, xs []T, less func(a, b T) bool) {
	if len(xs) < 2 {
		return
	}
	if workers <= 1 || len(xs) <= sortSeqCutoff {
		sort.SliceStable(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		return
	}
	buf := make([]T, len(xs))
	mergeSort(xs, buf, less, depthFor(workers))
}

// depthFor returns the fork depth that yields at least `workers` leaves.
func depthFor(workers int) int {
	d := 0
	for 1<<d < workers {
		d++
	}
	return d + 1 // oversplit 2x for balance
}

// mergeSort sorts xs using buf as scratch, forking until depth reaches 0.
func mergeSort[T any](xs, buf []T, less func(a, b T) bool, depth int) {
	if len(xs) <= sortSeqCutoff || depth == 0 {
		sort.SliceStable(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		return
	}
	mid := len(xs) / 2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mergeSort(xs[:mid], buf[:mid], less, depth-1)
	}()
	mergeSort(xs[mid:], buf[mid:], less, depth-1)
	wg.Wait()
	merge(xs[:mid], xs[mid:], buf, less)
	copy(xs, buf)
}

// merge stably merges sorted a and b into out (len(out) == len(a)+len(b)).
func merge[T any](a, b, out []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}
