package cplds

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kcore/internal/gen"
	"kcore/internal/graph"
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
		seq, _ := c.CutBegin(attempt)
		collect()
		c.InsertBatch(batches[next])
		next++
		if c.CutEnd(attempt, seq) {
			t.Fatalf("attempt %d validated across a commit", attempt)
		}
	}

	seq, epoch := c.CutBegin(pinnedAttempts)
	if got, want := epoch, c.Epoch(); got != want || seq&1 != 0 {
		t.Fatalf("gated attempt at epoch %d (seq %d), committed %d", got, seq, want)
	}
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
	if c.seq.Load() != seq {
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
	if got, want := c.Epoch(), epoch+1; got != want {
		t.Fatalf("epoch %d after the blocked batch, want %d", got, want)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRacesPinnedReads races pinned reads of every vertex against
// Restore. Two states A and B, built by the same number of batches over
// different graphs, are restored in turn, either always at the same epoch
// or each at a higher one. Every cut must be exactly the state restored at
// the epoch it reports: a restore to the epoch a cut began at must not let
// the cut validate with some vertices from before the restore and some
// from after.
func TestRestoreRacesPinnedReads(t *testing.T) {
	const n = 1000
	type state struct {
		csr    *graph.CSR
		levels []int32
		est    []float64
	}
	build := func(seed int64) state {
		c := newC(n)
		for _, b := range gen.Batches(gen.ChungLu(n, 2*n, 2.3, seed), n) {
			c.InsertBatch(b)
		}
		s := state{csr: c.Graph().Snapshot(), levels: make([]int32, n), est: make([]float64, n)}
		c.Levels(s.levels)
		for v, l := range s.levels {
			s.est[v] = c.S.EstimateFromLevel(l)
		}
		return s
	}
	states := [2]state{build(71), build(72)}
	if slices.Equal(states[0].est, states[1].est) {
		t.Fatal("the two restored states read the same")
	}
	const base = 2 // the epoch both states were built at
	restores := 100
	if testing.Short() {
		restores = 30
	}
	for _, higher := range []bool{false, true} {
		t.Run(fmt.Sprintf("higher=%v", higher), func(t *testing.T) {
			c := newC(n)
			if err := c.Restore(states[0].csr, states[0].levels, base); err != nil {
				t.Fatal(err)
			}
			// stateAt names the state restored at an epoch; with equal
			// epochs every cut is one whole state, either one.
			stateAt := func(epoch uint64, out []float64) bool {
				if !higher {
					return slices.Equal(out, states[0].est) || slices.Equal(out, states[1].est)
				}
				return slices.Equal(out, states[(epoch-base)%2].est)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var cuts atomic.Int64
			errc := make(chan error, 2)
			// One reader cuts every vertex once; the other cuts every
			// vertex 32 times over, a collection long enough to span a
			// whole restore.
			for r, laps := range []int{1, 32} {
				vs := make([]uint32, laps*n)
				for i := range vs {
					vs[i] = uint32(i % n)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]float64, len(vs))
					for {
						select {
						case <-stop:
							return
						default:
						}
						var epoch uint64
						if r == 0 {
							epoch = c.ReadAllPinned(out)
						} else {
							epoch = c.ReadManyPinned(vs, out)
						}
						torn := !stateAt(epoch, out[:n])
						for l := 1; l < laps; l++ {
							torn = torn || !slices.Equal(out[l*n:(l+1)*n], out[:n])
						}
						if torn {
							errc <- fmt.Errorf("reader %d: cut at epoch %d is no restored state", r, epoch)
							return
						}
						cuts.Add(1)
					}
				}()
			}
			for i := 1; i <= restores; i++ {
				epoch := uint64(base)
				if higher {
					epoch += uint64(i)
				}
				s := states[i%2]
				if err := c.Restore(s.csr, s.levels, epoch); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			close(errc)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if cuts.Load() == 0 {
				t.Fatal("no cut completed")
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
