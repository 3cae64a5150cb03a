package cplds

import (
	"slices"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/parallel"
)

// stepwiseMovers replays one insertion batch the way the PLDS sweep ran
// it while it still raised every violator one level per round, on plain
// slices. g already holds the batch and level the pre-batch levels,
// updated in place to the post-batch ones. It returns the set of vertices
// the batch moved.
func stepwiseMovers(s *lds.Structure, g *graph.Dynamic, level []int32, batch []graph.Edge) map[uint32]bool {
	moved := map[uint32]bool{}
	dirty := map[int32][]uint32{}
	top := int32(0)
	for _, e := range batch {
		for _, v := range [2]uint32{e.U, e.V} {
			dirty[level[v]] = append(dirty[level[v]], v)
			top = max(top, level[v])
		}
	}
	for l := int32(0); l <= top && l < s.MaxLevel(); l++ {
		cand := dirty[l]
		delete(dirty, l)
		slices.Sort(cand)
		var movers []uint32
		for _, v := range slices.Compact(cand) {
			if level[v] != l {
				continue
			}
			up := 0
			g.Neighbors(v, func(w uint32) bool {
				if level[w] >= l {
					up++
				}
				return true
			})
			if float64(up) > s.UpperBound(l) {
				movers = append(movers, v)
				moved[v] = true
			}
		}
		for _, v := range movers {
			level[v] = l + 1
		}
		for _, v := range movers {
			dirty[l+1] = append(dirty[l+1], v)
			g.Neighbors(v, func(w uint32) bool {
				if level[w] == l+1 {
					dirty[l+1] = append(dirty[l+1], w)
				}
				return true
			})
			top = max(top, l+1)
		}
	}
	return moved
}

// TestMoversMatchStepwiseSweep: the skip-ahead sweep must reach the levels
// of the one-level sweep and move the same vertices, so it stamps the same
// movers with the same pre-batch levels. On the benchmark's sliding
// window, with two workers, every insertion batch must mark exactly the
// stepwise replay's movers and leave every vertex at the replay's level.
func TestMoversMatchStepwiseSweep(t *testing.T) {
	n, pool, live, chunk, slides := 30000, 180000, 90000, 10000, 10
	if testing.Short() { // a fifth of the graph, for the race detector's sake
		n, pool, live, chunk, slides = n/5, pool/5, live/5, chunk/5, 5
	}
	old := parallel.Workers()
	parallel.SetWorkers(2)
	defer parallel.SetWorkers(old)

	ring := gen.Shuffle(gen.ChungLu(n, pool, 2.4, 104), 105)
	ring = append(ring, ring...)
	c := newC(n)
	var got []uint32
	checkMarksAtCommit(t, c, func(marked []uint32) { got = slices.Clone(marked) })
	level, after := make([]int32, n), make([]int32, n)
	insert := func(batch []graph.Edge) {
		t.Helper()
		c.Levels(level)
		c.InsertBatch(batch)
		want := stepwiseMovers(c.S, c.Graph(), level, batch)
		if len(got) != len(want) {
			t.Fatalf("batch marked %d vertices, the stepwise replay moved %d", len(got), len(want))
		}
		for _, v := range got {
			if !want[v] {
				t.Fatalf("vertex %d marked, but the stepwise replay did not move it", v)
			}
		}
		if c.Levels(after); !slices.Equal(after, level) {
			t.Fatal("the batch's levels differ from the stepwise replay's")
		}
	}
	for _, b := range gen.Batches(ring[:live], chunk) {
		insert(b)
	}
	head := live
	for _, k := range []int{chunk / 4, chunk / 40} {
		for i := 0; i < slides; i++ {
			insert(ring[head : head+k])
			c.DeleteBatch(ring[head-live : head-live+k])
			head += k
		}
	}
}
