package shard

import (
	"testing"
	"time"

	"kcore/internal/gen"
)

// TestCutGatedAttemptSharded runs the committed-cut protocol through
// readPinned over two shards. The collection itself submits a batch on
// every attempt. An optimistic attempt lets it commit, which fails the
// attempt's validation; the last attempt holds every shard's gate, so the
// batch must stay blocked for the whole collection, which must then read
// the quiescent cut. The returned epoch is that cut's.
func TestCutGatedAttemptSharded(t *testing.T) {
	const n = 400
	e := New(n, 2, defaultP())
	batches := gen.Batches(gen.ChungLu(n, 6000, 2.3, 62), 200)
	e.Insert(batches[0])
	got := make([]float64, n)
	var attempts, blockedEpoch uint64
	var blocked chan struct{}
	epoch := e.readPinned(func() {
		attempts++
		if blocked != nil {
			t.Fatal("collect ran again after the gated attempt")
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.Insert(batches[attempts])
		}()
		select {
		case <-done:
			return // optimistic: this commit must fail the attempt
		case <-time.After(time.Second):
		}
		blocked, blockedEpoch = done, e.Epoch()
		for v := range got {
			got[v] = e.Read(uint32(v))
		}
		for v := range got {
			if want := e.ReadNonSync(uint32(v)); got[v] != want {
				t.Errorf("vertex %d: gated read %v, quiescent %v", v, got[v], want)
			}
		}
		select {
		case <-done:
			t.Error("a batch committed while every gate was held")
		default:
		}
	})
	if blocked == nil {
		t.Fatalf("no attempt held the batch back in %d attempts", attempts)
	}
	if attempts < 2 {
		t.Fatalf("the first attempt was gated: %d attempts", attempts)
	}
	if epoch != blockedEpoch {
		t.Fatalf("readPinned returned epoch %d, the gated cut was %d", epoch, blockedEpoch)
	}
	<-blocked
	if e.Epoch() <= epoch {
		t.Fatalf("the blocked batch did not commit after the gates opened: epoch %d", e.Epoch())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
