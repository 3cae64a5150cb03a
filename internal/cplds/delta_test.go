package cplds

import (
	"fmt"
	"slices"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/mvcc"
	"kcore/internal/parallel"
)

// TestCommitDeltaIsExactLevelDiff checks the one commit delta every
// consumer reads: over seeded insert and delete batches, at one and two
// workers and with retention off and on, each delta the commit hook
// receives must be exactly the diff of the level snapshots taken around
// its batch, sorted by vertex with no unchanged movers, and stamped with
// the epoch the batch committed. With retention on, the epoch before it
// must read back the pre-batch snapshot.
func TestCommitDeltaIsExactLevelDiff(t *testing.T) {
	const n = 400
	edges := gen.Shuffle(gen.ChungLu(n, 3000, 2.3, 106), 107)
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	for _, workers := range []int{1, 2} {
		for _, retain := range []int{0, 4} {
			t.Run(fmt.Sprintf("workers=%d/retain=%d", workers, retain), func(t *testing.T) {
				parallel.SetWorkers(workers)
				c := newC(n)
				c.SetRetainedEpochs(retain)
				var got mvcc.Delta
				calls, moved := 0, 0
				c.SetCommitHook(func() bool { return true }, func(d *mvcc.Delta, publish func()) {
					calls++
					moved += len(d.Moves)
					got.Epoch = d.Epoch
					got.Moves = append(got.Moves[:0], d.Moves...)
					publish()
				})

				before, after := make([]int32, n), make([]int32, n)
				pre := make([]float64, n)
				apply := func(batch []graph.Edge, insert bool) {
					t.Helper()
					c.Levels(before)
					if insert {
						c.InsertBatch(batch)
					} else {
						c.DeleteBatch(batch)
					}
					c.Levels(after)
					var want []mvcc.Move
					for v := range before {
						if before[v] != after[v] {
							want = append(want, mvcc.Move{V: uint32(v), Old: before[v], New: after[v]})
						}
					}
					if !slices.Equal(got.Moves, want) {
						t.Fatalf("epoch %d: delta moves %v, level diff %v", got.Epoch, got.Moves, want)
					}
					for i, m := range got.Moves {
						if m.Old == m.New || (i > 0 && got.Moves[i-1].V >= m.V) {
							t.Fatalf("epoch %d: move %d %+v not a strictly ascending change", got.Epoch, i, m)
						}
					}
					if got.Epoch != c.Epoch() {
						t.Fatalf("delta epoch %d, committed epoch %d", got.Epoch, c.Epoch())
					}
					if retain > 0 {
						if err := c.ReadAllAt(pre, got.Epoch-1); err != nil {
							t.Fatalf("ReadAllAt(%d): %v", got.Epoch-1, err)
						}
						for v, l := range before {
							if pre[v] != c.S.EstimateFromLevel(l) {
								t.Fatalf("vertex %d at epoch %d: read %v, pre-batch level %d", v, got.Epoch-1, pre[v], l)
							}
						}
					}
				}

				batches := gen.Batches(edges, 500)
				for _, b := range batches {
					apply(b, true)
				}
				for _, b := range batches {
					apply(b[:len(b)/2], false)
				}
				if calls != 2*len(batches) || moved == 0 {
					t.Fatalf("hook ran %d times for %d batches with %d moves", calls, 2*len(batches), moved)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCommitDeltaEmptyWhenIdle checks the zero-consumer fast path: with
// retention off and an inactive hook, the delta carries the epoch but no
// moves, and the predicate runs once per commit.
func TestCommitDeltaEmptyWhenIdle(t *testing.T) {
	const n = 300
	c := newC(n)
	checks := 0
	c.SetCommitHook(func() bool { checks++; return false }, func(d *mvcc.Delta, publish func()) {
		if len(d.Moves) != 0 {
			t.Fatalf("idle commit captured %d moves", len(d.Moves))
		}
		publish()
		if d.Epoch != c.Epoch() {
			t.Fatalf("delta epoch %d, committed epoch %d", d.Epoch, c.Epoch())
		}
	})
	for _, b := range gen.Batches(gen.ChungLu(n, 2000, 2.3, 108), 500) {
		c.InsertBatch(b)
	}
	if checks != int(c.Epoch()) {
		t.Fatalf("predicate ran %d times over %d commits", checks, c.Epoch())
	}
}
