package cplds

import (
	"slices"
	"testing"
	"time"

	"kcore/internal/gen"
)

// blockWait is how long a test watches a batch that must stay blocked
// behind a held gate before it releases the gate.
const blockWait = 50 * time.Millisecond

// TestCutGatedAttempt drives the committed-cut protocol by hand. Every
// optimistic attempt has a batch commit between CutBegin and CutEnd, so
// CutEnd must report false. The last attempt holds the batch gate: a
// concurrent batch must not start until CutEnd, and the cut collected under
// the gate — with the same ReadLevel loop as the optimistic attempts — must
// be the quiescent state.
func TestCutGatedAttempt(t *testing.T) {
	const n = 400
	c := newC(n)
	batches := gen.Batches(gen.ChungLu(n, 4000, 2.3, 61), 200)
	c.InsertBatch(batches[0])
	got := make([]int32, n)
	collect := func() {
		for v := range got {
			got[v] = c.ReadLevel(uint32(v))
		}
	}
	next := 1
	for attempt := 0; attempt < pinnedAttempts; attempt++ {
		seq, ok := c.CutBegin(attempt)
		if !ok {
			t.Fatalf("attempt %d: CutBegin reports an unmark phase at quiescence", attempt)
		}
		collect()
		c.InsertBatch(batches[next])
		next++
		if c.CutEnd(attempt, seq) {
			t.Fatalf("attempt %d validated across a commit", attempt)
		}
	}

	seq, ok := c.CutBegin(pinnedAttempts)
	if !ok {
		t.Fatal("the gated attempt did not open")
	}
	if got, want := seq>>1, c.Epoch(); got != want {
		t.Fatalf("gated attempt at epoch %d, committed %d", got, want)
	}
	batchNum := c.BatchNumber()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.InsertBatch(batches[next])
	}()
	collect()
	select {
	case <-done:
		t.Fatal("a batch committed while the gated attempt held the gate")
	case <-time.After(blockWait):
	}
	if c.BatchNumber() != batchNum {
		t.Fatal("a batch started while the gated attempt held the gate")
	}
	want := make([]int32, n)
	c.Levels(want)
	if !slices.Equal(got, want) {
		t.Fatal("the cut collected under the gate differs from the quiescent levels")
	}
	if !c.CutEnd(pinnedAttempts, seq) {
		t.Fatal("the gated attempt failed validation")
	}
	<-done
	if got, want := c.Epoch(), seq>>1+1; got != want {
		t.Fatalf("epoch %d after the blocked batch, want %d", got, want)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
