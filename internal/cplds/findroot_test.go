package cplds

import (
	"fmt"
	"math/rand"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/parallel"
	"kcore/internal/plds"
)

// markWords installs a current-stamp descriptor for every vertex in
// parents with the given parent (Root for a root).
func markWords(c *CPLDS, parents map[uint32]int32) {
	for v, p := range parents {
		d := &c.pool[v]
		d.word.Store(packWord(c.stamp, p))
		c.desc[v].Store(d)
	}
}

// checkParentChains reports the first marked vertex whose parent chain is
// not strictly decreasing or does not reach a marked root within n steps.
func checkParentChains(c *CPLDS, marked []uint32) error {
	n := c.NumVertices()
	for _, v := range marked {
		w := v
		for steps := 0; ; steps++ {
			d := c.desc[w].Load()
			if d == nil {
				return fmt.Errorf("chain of %d reaches unmarked vertex %d", v, w)
			}
			p := parentOf(d.word.Load())
			if p == Root {
				break
			}
			if uint32(p) >= w {
				return fmt.Errorf("chain of %d: parent of %d is %d, not smaller", v, w, p)
			}
			if steps >= n {
				return fmt.Errorf("chain of %d does not reach a root in %d steps", v, n)
			}
			w = uint32(p)
		}
	}
	return nil
}

// TestFindRootCompressAfterRelink replays the interleaving in which path
// compression used to close a cycle. Worker A found root x for v → a → x.
// Before A compressed, worker B linked x under z, compressed a to z, and
// linked z under z′. The descriptor words are set to that post-race state
// and A's compression runs on them: it must not store x under z.
func TestFindRootCompressAfterRelink(t *testing.T) {
	const zz, z, x, a, v = 1, 2, 3, 4, 5 // z′ < z < x < a < v
	c := newC(8)
	c.stamp = 7
	markWords(c, map[uint32]int32{v: a, a: z, z: zz, x: z, zz: Root})
	c.compress(v, x)

	marked := []uint32{zz, z, x, a, v}
	if err := checkParentChains(c, marked); err != nil {
		t.Fatal(err)
	}
	if p, _ := c.desc[v].Load().Parent(); p != x {
		t.Fatalf("parent of %d = %d, want it compressed to %d", v, p, x)
	}
	for _, u := range marked {
		if r, ok := c.findRoot(u); !ok || r != zz {
			t.Fatalf("root of %d = %d (ok=%v), want %d", u, r, ok, zz)
		}
	}
}

// TestFindRootParentChainsUnderParallelUnions applies many small insert
// batches of overlapping dense clusters, each with enough first movers that
// VertexMoving (and so union and findRoot) runs on several workers at
// once. Before every unmark, each marked vertex's parent chain must
// strictly decrease and reach a root. Run it with -cpu 2,4 so that the
// workers really overlap.
func TestFindRootParentChainsUnderParallelUnions(t *testing.T) {
	const n = 2048
	batches := 12
	if testing.Short() {
		batches = 6
	}
	// δ = 3 keeps the level structure coarse: the clusters climb a few
	// dozen levels instead of hundreds, which keeps the test fast under
	// -race without changing how many vertices are marked and unioned.
	params := lds.Params{Delta: 3, Lambda: 9}
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	for workers := 2; workers <= 4; workers++ {
		parallel.SetWorkers(workers)
		c := New(n, params)
		var failed error
		c.beforeUnmark = func(_ plds.Kind, marked []uint32) {
			if err := checkParentChains(c, marked); err != nil && failed == nil {
				failed = err
			}
		}
		rng := rand.New(rand.NewSource(int64(workers)))
		var live [][]graph.Edge
		for b := 0; b < batches && failed == nil; b++ {
			// 120 clusters of 6 random vertices: 500-600 first movers
			// per batch, each unioned with its cluster-mates.
			var batch []graph.Edge
			for cl := 0; cl < 120; cl++ {
				vs := make([]uint32, 6)
				for i := range vs {
					vs[i] = uint32(rng.Intn(n))
				}
				for i := range vs {
					for j := i + 1; j < len(vs); j++ {
						batch = append(batch, graph.E(vs[i], vs[j]))
					}
				}
			}
			c.InsertBatch(batch)
			live = append(live, batch)
			if len(live) > 3 {
				c.DeleteBatch(live[0])
				live = live[1:]
			}
		}
		if failed != nil {
			t.Fatalf("workers=%d: %v", workers, failed)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
