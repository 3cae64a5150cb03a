package cplds

import (
	"slices"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/parallel"
	"kcore/internal/plds"
)

// stepwiseDAGs replays one insertion batch the way the CPLDS ran it while
// the PLDS sweep still raised every violator one level per round, on plain
// slices: a vertex is marked at its first move and merged with each marked
// neighbour then standing at or above its pre-batch level (its triggers)
// and with each marked endpoint of a batch edge. g already holds the batch
// and level the pre-batch levels, updated in place. It returns the least
// vertex of every marked vertex's dependency DAG — the engine's root, which
// links the larger root under the smaller.
func stepwiseDAGs(s *lds.Structure, g *graph.Dynamic, level []int32, batch []graph.Edge) map[uint32]uint32 {
	parent := map[uint32]uint32{} // marked vertices only
	var find func(v uint32) uint32
	find = func(v uint32) uint32 {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	union := func(v, w uint32) {
		if _, marked := parent[w]; !marked {
			return
		}
		rv, rw := find(v), find(w)
		parent[max(rv, rw)] = min(rv, rw)
	}
	batchNbrs := map[uint32][]uint32{}
	dirty := map[int32][]uint32{}
	top := int32(0)
	for _, e := range batch {
		batchNbrs[e.U] = append(batchNbrs[e.U], e.V)
		batchNbrs[e.V] = append(batchNbrs[e.V], e.U)
		for _, v := range [2]uint32{e.U, e.V} {
			dirty[level[v]] = append(dirty[level[v]], v)
			top = max(top, level[v])
		}
	}
	for l := int32(0); l <= top && l < s.MaxLevel(); l++ {
		cand := dirty[l]
		delete(dirty, l)
		slices.Sort(cand)
		var movers, first []uint32
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
				if _, marked := parent[v]; !marked {
					parent[v] = v
					first = append(first, v)
				}
			}
		}
		// First moves are noted before any level of the round changes.
		for _, v := range first {
			g.Neighbors(v, func(w uint32) bool {
				if level[w] >= l {
					union(v, w)
				}
				return true
			})
			for _, w := range batchNbrs[v] {
				union(v, w)
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
	roots := make(map[uint32]uint32, len(parent))
	for v := range parent {
		roots[v] = find(v)
	}
	return roots
}

// TestDAGsMatchStepwiseSweep: VertexMoving picks a mover's triggers by the
// live levels of its marked neighbours, and under the skip-ahead sweep those
// neighbours reach their levels earlier than they used to. It must not
// matter: a vertex still first moves in the round of its pre-batch level ℓ,
// and a marked neighbour is at or above ℓ in that round exactly when its
// final level is, in either sweep. So on the benchmark's sliding window,
// with two workers, every insertion batch must mark the same vertices and
// partition them into the same dependency DAGs as the stepwise replay.
func TestDAGsMatchStepwiseSweep(t *testing.T) {
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
	var got map[uint32]uint32
	checkDAGAtUnmark(t, c, func(kind plds.Kind, marked []uint32) {
		if kind != plds.Insert {
			return
		}
		got = make(map[uint32]uint32, len(marked))
		for _, v := range marked {
			r, ok := c.findRoot(v)
			if !ok {
				t.Errorf("findRoot failed for marked vertex %d", v)
			}
			got[v] = r
		}
	})
	level := make([]int32, n)
	insert := func(batch []graph.Edge) {
		t.Helper()
		for v := range level {
			level[v] = c.P.Level(uint32(v))
		}
		c.InsertBatch(batch)
		want := stepwiseDAGs(c.S, c.Graph(), level, batch)
		if len(got) != len(want) {
			t.Fatalf("batch marked %d vertices, the stepwise replay %d", len(got), len(want))
		}
		for v, r := range want {
			if gr, marked := got[v]; !marked || gr != r {
				t.Fatalf("vertex %d: DAG root %d (marked %v), the stepwise replay has %d", v, gr, marked, r)
			}
		}
	}
	dags := 0
	for _, b := range gen.Batches(ring[:live], chunk) {
		insert(b)
	}
	head := live
	for _, k := range []int{chunk / 4, chunk / 40} {
		for i := 0; i < slides; i++ {
			insert(ring[head : head+k])
			for v, r := range got {
				if v != r {
					dags++
				}
			}
			c.DeleteBatch(ring[head-live : head-live+k])
			head += k
		}
	}
	if dags == 0 {
		t.Fatal("no sliding batch merged two vertices into one DAG")
	}
}
