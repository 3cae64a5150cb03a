package cplds

import (
	"runtime"
	"sync"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/parallel"
)

// TestConcurrentMarkingLargeCascade forces a round with far more movers
// than the parallel runtime's sequential grain, so VertexMoving runs from
// many goroutines at once: the lock-free marked arena (atomic cursor into a
// preallocated buffer) and the per-vertex stamps are exercised by genuinely
// concurrent markers, with linearizable readers racing the batch. Run
// under -race in CI.
func TestConcurrentMarkingLargeCascade(t *testing.T) {
	oldWorkers := parallel.Workers()
	parallel.SetWorkers(4)
	defer parallel.SetWorkers(oldWorkers)

	// A single batch inserting many disjoint dense clusters moves every
	// cluster vertex in the first round (>512 movers => parallel marking).
	const clusters = 160
	const k = 8 // vertices per cluster; k-clique => all move off level 0
	const n = clusters * k
	c := New(n, lds.DefaultParams())
	var batch []graph.Edge
	for cl := 0; cl < clusters; cl++ {
		base := uint32(cl * k)
		for i := uint32(0); i < k; i++ {
			for j := i + 1; j < k; j++ {
				batch = append(batch, graph.E(base+i, base+j))
			}
		}
	}

	var markedSeen int
	checkMarksAtCommit(t, c, func(marked []uint32) { markedSeen = len(marked) })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Read(uint32((i*7 + r) % n))
				runtime.Gosched() // readers that never yield starve the batch's workers
			}
		}(r)
	}
	// Several batches so stamps and old levels are overwritten while
	// readers race: insert, delete, re-insert.
	c.InsertBatch(batch)
	if markedSeen < 512 {
		t.Fatalf("only %d vertices marked; need >512 for parallel marking", markedSeen)
	}
	c.DeleteBatch(batch[:len(batch)/2])
	c.InsertBatch(batch)
	close(stop)
	wg.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < n; v++ {
		if c.IsMarked(v) {
			t.Fatalf("vertex %d still marked", v)
		}
	}
}
