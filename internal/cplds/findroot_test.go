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
// not strictly decreasing, leaves the current batch's stamp, or does not
// reach a marked root within n steps.
func checkParentChains(c *CPLDS, marked []uint32) error {
	n := c.NumVertices()
	for _, v := range marked {
		w := v
		for steps := 0; ; steps++ {
			d := c.desc[w].Load()
			if d == nil {
				return fmt.Errorf("chain of %d reaches unmarked vertex %d", v, w)
			}
			word := d.word.Load()
			if stamp := uint32(word >> 32); stamp != c.stamp {
				return fmt.Errorf("chain of %d reaches %d with stamp %d, want %d", v, w, stamp, c.stamp)
			}
			p := parentOf(word)
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

// checkMarkedDAG asserts the DAG invariant over every marked descriptor
// that carries the current stamp, not only over a given marked list: each
// parent is a smaller id holding a current-stamp descriptor, so every chain
// strictly decreases, is acyclic and ends at a root.
func checkMarkedDAG(c *CPLDS) error {
	var marked []uint32
	for v := range c.desc {
		if d := c.desc[v].Load(); d != nil && uint32(d.word.Load()>>32) == c.stamp {
			marked = append(marked, uint32(v))
		}
	}
	return checkParentChains(c, marked)
}

// checkDAGAtUnmark installs checkMarkedDAG as c's beforeUnmark hook, so
// each batch's final marked DAG is checked before the unmark passes, and
// then calls then, if non-nil, with the hook's arguments.
func checkDAGAtUnmark(t testing.TB, c *CPLDS, then func(plds.Kind, []uint32)) {
	c.beforeUnmark = func(kind plds.Kind, marked []uint32) {
		if err := checkMarkedDAG(c); err != nil {
			t.Errorf("batch %d: %v", c.stamp, err)
		}
		if then != nil {
			then(kind, marked)
		}
	}
}

// TestCheckDAGCompressionAfterRelink drives the reader-side compression in
// checkDAG, which CASes the entry descriptor's parent to the root it
// observed, against the relinks concurrent unions make. Worker-free and
// deterministic: the descriptor words are set by hand, one ancestor is
// relinked between reads as a union would, and parent < child must hold
// everywhere after every read.
func TestCheckDAGCompressionAfterRelink(t *testing.T) {
	const zz, z, x, a, u, v = 1, 2, 3, 4, 5, 6 // z′ < z < x < a < u < v
	c := newC(8)
	c.stamp = 7
	markWords(c, map[uint32]int32{v: a, u: a, a: x, x: Root, z: Root, zz: Root})
	read := func(w uint32, wantParent int32) {
		t.Helper()
		if c.checkDAG(c.desc[w].Load()) != Marked {
			t.Fatalf("DAG of %d reads unmarked", w)
		}
		if err := checkMarkedDAG(c); err != nil {
			t.Fatal(err)
		}
		if p, _ := c.desc[w].Load().Parent(); p != wantParent {
			t.Fatalf("parent of %d = %d, want %d", w, p, wantParent)
		}
	}
	read(v, x) // v → a → x: v is compressed to x

	// Unions link x under z, then z under z′, as the updater's CAS does;
	// readers entering below compress to whichever root they observe.
	c.desc[x].Load().word.Store(packWord(c.stamp, z))
	read(u, z) // u → a → x → z
	read(v, z) // v → x → z
	c.desc[z].Load().word.Store(packWord(c.stamp, zz))
	read(a, zz) // a → x → z → z′
	read(v, zz) // v → z → z′

	// Randomised: unions (the updater's findRoot compression) interleaved
	// with reader compressions from every entry keep the invariant.
	rng := rand.New(rand.NewSource(1))
	const n = 64
	for trial := 0; trial < 200; trial++ {
		c := newC(n)
		c.stamp = uint32(trial + 1)
		words := map[uint32]int32{}
		for w := uint32(0); w < n; w++ {
			if w == 0 || rng.Intn(4) == 0 {
				words[w] = Root
			} else {
				words[w] = int32(rng.Intn(int(w)))
			}
		}
		markWords(c, words)
		for step := 0; step < 50; step++ {
			if rng.Intn(3) == 0 {
				c.union(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
			} else if c.checkDAG(c.desc[rng.Intn(n)].Load()) != Marked {
				t.Fatalf("trial %d: a fully marked forest reads unmarked", trial)
			}
			if err := checkMarkedDAG(c); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
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
			if failed != nil {
				return
			}
			if failed = checkParentChains(c, marked); failed == nil {
				failed = checkMarkedDAG(c)
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
