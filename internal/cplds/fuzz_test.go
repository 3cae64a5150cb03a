package cplds

import (
	"testing"

	"kcore/internal/graph"
	"kcore/internal/lds"
)

// FuzzBatchSequences drives the CPLDS with arbitrary interleavings of
// insertion and deletion batches and requires every mover to be stamped
// before each commit, and clean invariants and no marked vertex after
// every batch.
func FuzzBatchSequences(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 3, 1, 0, 1})
	f.Add([]byte{2, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 24
		c := New(n, lds.DefaultParams())
		checkMarksAtCommit(t, c, nil)
		var batch []graph.Edge
		flushInsert := true
		for i := 0; i+1 < len(data); i += 2 {
			u, v := uint32(data[i])%n, uint32(data[i+1])%n
			batch = append(batch, graph.E(u, v))
			if len(batch) == 6 {
				if flushInsert {
					c.InsertBatch(batch)
				} else {
					c.DeleteBatch(batch)
				}
				flushInsert = !flushInsert
				batch = batch[:0]
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				for v := uint32(0); v < n; v++ {
					if c.IsMarked(v) {
						t.Fatalf("vertex %d marked after batch end", v)
					}
				}
			}
		}
	})
}
