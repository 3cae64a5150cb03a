package cplds

import (
	"sync"
	"sync/atomic"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
)

func newC(n int) *CPLDS { return New(n, lds.DefaultParams()) }

func TestQuiescentReadsMatchLiveEstimates(t *testing.T) {
	const n = 300
	c := newC(n)
	edges := gen.ChungLu(n, 2000, 2.3, 81)
	c.InsertBatch(edges)
	for v := uint32(0); v < n; v++ {
		if c.IsMarked(v) {
			t.Fatalf("vertex %d still marked after batch", v)
		}
		if got, want := c.Read(v), c.ReadNonSync(v); got != want {
			t.Fatalf("quiescent read mismatch at %d: %v vs %v", v, got, want)
		}
		if got, want := c.ReadSync(v), c.ReadNonSync(v); got != want {
			t.Fatalf("quiescent sync read mismatch at %d", v)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNumberAdvances(t *testing.T) {
	c := newC(10)
	if c.Epoch() != 0 {
		t.Fatalf("initial epoch = %d", c.Epoch())
	}
	c.InsertBatch([]graph.Edge{graph.E(0, 1)})
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.Epoch())
	}
	c.DeleteBatch([]graph.Edge{graph.E(0, 1)})
	if c.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", c.Epoch())
	}
	// A batch that changes no edge is no batch: empty, self-loop-only,
	// re-inserting a present edge, deleting an absent one. None starts a
	// batch or commits an epoch.
	c.InsertBatch([]graph.Edge{graph.E(2, 3)})
	for i, noop := range []func() int{
		func() int { return c.InsertBatch(nil) },
		func() int { return c.DeleteBatch(nil) },
		func() int { return c.InsertBatch([]graph.Edge{graph.E(4, 4), {U: 5, V: 99}}) },
		func() int { return c.InsertBatch([]graph.Edge{graph.E(3, 2)}) },
		func() int { return c.DeleteBatch([]graph.Edge{graph.E(0, 1)}) },
	} {
		if applied := noop(); applied != 0 {
			t.Fatalf("no-op batch %d applied %d edges", i, applied)
		}
		if c.Epoch() != 3 || c.seq.Load() != 6 {
			t.Fatalf("no-op batch %d: epoch %d, seq %d, want 3 and 6", i, c.Epoch(), c.seq.Load())
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStampLifecycleAndOldLevels: at the end of a batch every mover is
// stamped with the batch in flight and its mark holds its pre-batch level;
// after the commit no vertex counts as marked.
func TestStampLifecycleAndOldLevels(t *testing.T) {
	const n = 200
	c := newC(n)
	base := gen.ChungLu(n, 1200, 2.3, 82)
	c.InsertBatch(base)
	pre := make([]int32, n)
	c.Levels(pre)
	var sawMarked int
	checkMarksAtCommit(t, c, func(marked []uint32) {
		sawMarked = len(marked)
		for _, v := range marked {
			if old := c.marks[v].old.Load(); old != pre[v] {
				t.Errorf("vertex %d: old level %d != pre-batch level %d", v, old, pre[v])
			}
			if c.P.Level(v) == pre[v] {
				t.Errorf("marked vertex %d did not actually change level", v)
			}
		}
	})
	more := gen.ChungLu(n, 1200, 2.3, 83)
	c.InsertBatch(more)
	if sawMarked == 0 {
		t.Fatal("no vertices were marked by a dense insertion batch")
	}
	for v := uint32(0); v < n; v++ {
		if c.IsMarked(v) {
			t.Fatalf("vertex %d still marked after batch end", v)
		}
	}
}

// checkMarksAtCommit installs a beforeCommit hook that checks the batch's
// movers are distinct and stamped with the batch in flight, then calls
// then, if non-nil.
func checkMarksAtCommit(t testing.TB, c *CPLDS, then func(marked []uint32)) {
	c.beforeCommit = func(marked []uint32) {
		seen := make(map[uint32]bool, len(marked))
		for _, v := range marked {
			if seen[v] {
				t.Errorf("vertex %d marked twice", v)
			}
			seen[v] = true
			if !c.IsMarked(v) {
				t.Errorf("mover %d is not stamped with the batch in flight", v)
			}
		}
		if then != nil {
			then(marked)
		}
	}
}

// buildCascade returns a CPLDS holding a settled clique on the vertices
// k..n-1, and the batch that completes the clique on all n vertices. A
// clique inserted into an empty structure rises in one round, so no
// intermediate level would exist. Here the vertices below k first jump
// past the settled ones, which then climb past them and lift them again:
// vertex 0 passes through a level that is neither its pre-batch nor its
// post-batch one, while every vertex below k starts at level 0.
func buildCascade(n, k int) (*CPLDS, []graph.Edge) {
	c := newC(n)
	var settled, batch []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i >= k {
				settled = append(settled, graph.E(uint32(i), uint32(j)))
			} else {
				batch = append(batch, graph.E(uint32(i), uint32(j)))
			}
		}
	}
	c.InsertBatch(settled)
	return c, batch
}

func TestNoIntermediateLevelsVisible(t *testing.T) {
	// The core safety property (§6.3): a concurrent linearizable read never
	// observes an intermediate level, only the pre-batch or post-batch one.
	const n = 64
	const k = 48
	trials := 20
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		c, batch := buildCascade(n, k)
		pre := make([]int32, n)
		for v := range pre {
			pre[v] = c.P.Level(uint32(v)) // zero below k
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		type obs struct {
			v     uint32
			level int32
		}
		var mu sync.Mutex
		var observations []obs
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var local []obs
				for {
					select {
					case <-stop:
						mu.Lock()
						observations = append(observations, local...)
						mu.Unlock()
						return
					default:
					}
					v := uint32((r * 7) % k)
					local = append(local, obs{v, c.ReadLevel(v)})
				}
			}(r)
		}
		c.InsertBatch(batch)
		close(stop)
		wg.Wait()
		post := make([]int32, n)
		for v := range post {
			post[v] = c.P.Level(uint32(v))
		}
		if post[0] == pre[0] {
			t.Fatalf("trial %d: cascade did not move vertex 0", trial)
		}
		for _, o := range observations {
			if o.level != pre[o.v] && o.level != post[o.v] {
				t.Fatalf("trial %d: read of %d returned intermediate level %d (pre %d, post %d)",
					trial, o.v, o.level, pre[o.v], post[o.v])
			}
		}
	}
}

func TestNonSyncDoesObserveIntermediates(t *testing.T) {
	// Sanity check that the previous test has teeth: the NonSync baseline,
	// reading live levels, does observe intermediate levels on the same
	// workload (this is exactly why it is non-linearizable).
	const n = 64
	const k = 48
	trials := 50
	if testing.Short() {
		trials = 10
	}
	sawIntermediate := false
	for trial := 0; trial < trials && !sawIntermediate; trial++ {
		c, batch := buildCascade(n, k)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		var levels []int32
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				levels = append(levels, c.P.Level(0))
			}
		}()
		c.InsertBatch(batch)
		close(stop)
		wg.Wait()
		post := c.P.Level(0)
		for _, l := range levels {
			if l != 0 && l != post {
				sawIntermediate = true
				break
			}
		}
	}
	if !sawIntermediate {
		t.Skip("scheduler never exposed an intermediate level to the NonSync reader; property not falsified")
	}
}

func TestNoNewOldInversion(t *testing.T) {
	// Whole-batch atomicity: once a reader has seen a post-batch level of
	// any mover, no later read may return a pre-batch level of another.
	// Within one goroutine, a read is invoked strictly after the previous
	// read responded, so program order is real-time order and the check is
	// sound. Cross-goroutine order cannot be timestamped without
	// instrumenting the reads themselves, so each goroutine is checked
	// independently.
	const n = 64
	const k = 40
	trials := 20
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		c, batch := buildCascade(n, k)
		type obs struct {
			v     uint32
			level int32
		}
		perReader := make([][]obs, 3)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var local []obs
				for i := 0; ; i++ {
					select {
					case <-stop:
						perReader[r] = local
						return
					default:
					}
					v := uint32((i + r*11) % k)
					local = append(local, obs{v, c.ReadLevel(v)})
				}
			}(r)
		}
		c.InsertBatch(batch)
		close(stop)
		wg.Wait()
		post := make([]int32, n)
		for v := range post {
			post[v] = c.P.Level(uint32(v))
		}
		for r, seq := range perReader {
			sawNew := false
			for i, o := range seq {
				if post[o.v] == 0 {
					continue // vertex did not move; value carries no signal
				}
				switch o.level {
				case post[o.v]:
					sawNew = true
				case 0:
					if sawNew {
						t.Fatalf("trial %d reader %d: new-old inversion at obs %d: vertex %d returned pre-batch level after a post-batch level was observed",
							trial, r, i, o.v)
					}
				}
			}
		}
	}
}

func TestConcurrentReadersManyBatches(t *testing.T) {
	// End-to-end stress under the race detector: continuous linearizable,
	// sync and non-sync readers against a stream of insert and delete
	// batches; every batch's movers must be stamped before its commit, and
	// afterwards no vertex may count as marked, the structure must be
	// invariant-clean, and reads must agree with live levels.
	const n = 500
	c := newC(n)
	checkMarksAtCommit(t, c, nil)
	edges := gen.ChungLu(n, 4000, 2.3, 87)
	us := gen.NewUpdateStream(edges, n, 0.25, 400, 88)
	c.InsertBatch(us.Base)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var reads atomic.Int64
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := gen.NewUniformReads(n, int64(r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := w.Next()
				switch r % 3 {
				case 0:
					c.Read(v)
				case 1:
					c.ReadNonSync(v)
				case 2:
					c.ReadSync(v)
				}
				reads.Add(1)
			}
		}(r)
	}
	for _, b := range us.Insertions {
		c.InsertBatch(b)
	}
	for _, b := range us.Deletions {
		c.DeleteBatch(b)
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no reads completed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < n; v++ {
		if c.IsMarked(v) {
			t.Fatalf("vertex %d marked after all batches", v)
		}
	}
}

func TestReadLockFreeUnderIdleSystem(t *testing.T) {
	// With no concurrent batch, a read must complete on the first attempt
	// (trivially, but this pins the fast path).
	c := newC(50)
	c.InsertBatch(gen.ErdosRenyi(50, 200, 89))
	for v := uint32(0); v < 50; v++ {
		got := c.Read(v)
		if got != c.S.EstimateFromLevel(c.P.Level(v)) {
			t.Fatalf("idle read of %d = %v", v, got)
		}
	}
}

func TestSyncReadsBlockDuringBatch(t *testing.T) {
	// ReadSync must not return while a batch is in flight. We verify by
	// observing that a sync read issued mid-batch returns the post-batch
	// estimate, never the pre-batch one, for a vertex that moves.
	const n = 64
	const k = 40
	for trial := 0; trial < 10; trial++ {
		c, batch := buildCascade(n, k)
		started := make(chan struct{})
		var syncLevelEst float64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-started
			syncLevelEst = c.ReadSync(0)
		}()
		c.beforeCommit = func([]uint32) {
			// The batch is provably in flight here; release the reader.
			select {
			case <-started:
			default:
				close(started)
			}
		}
		c.InsertBatch(batch)
		wg.Wait()
		want := c.S.EstimateFromLevel(c.P.Level(0))
		if syncLevelEst != want {
			t.Fatalf("trial %d: sync read returned %v, want post-batch %v", trial, syncLevelEst, want)
		}
	}
}

func TestApproximationBoundHeldByReads(t *testing.T) {
	// Estimates returned by quiescent linearizable reads satisfy the same
	// provable bound as the PLDS.
	const n = 400
	c := newC(n)
	edges := gen.ChungLu(n, 3000, 2.3, 90)
	for _, b := range gen.Batches(edges, 500) {
		c.InsertBatch(b)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeletionStampsRecordPreBatchLevels(t *testing.T) {
	const n = 200
	c := newC(n)
	edges := gen.ChungLu(n, 2000, 2.3, 95)
	c.InsertBatch(edges)
	pre := make([]int32, n)
	c.Levels(pre)
	verified := 0
	checkMarksAtCommit(t, c, func(marked []uint32) {
		for _, v := range marked {
			if old := c.marks[v].old.Load(); old != pre[v] {
				t.Errorf("deletion: vertex %d old level %d != pre %d", v, old, pre[v])
			}
			if c.P.Level(v) >= pre[v] {
				t.Errorf("deletion mover %d did not move down (pre %d, now %d)", v, pre[v], c.P.Level(v))
			}
			verified++
		}
	})
	c.DeleteBatch(edges[:1500])
	if verified == 0 {
		t.Fatal("no deletion movers to verify")
	}
}

func TestReadRetriesCounter(t *testing.T) {
	c := newC(50)
	c.InsertBatch(gen.ErdosRenyi(50, 200, 96))
	if c.ReadRetries() != 0 {
		t.Fatalf("retries before any contention = %d", c.ReadRetries())
	}
	// Quiescent reads never retry.
	for v := uint32(0); v < 50; v++ {
		c.Read(v)
	}
	if c.ReadRetries() != 0 {
		t.Fatalf("quiescent reads retried %d times", c.ReadRetries())
	}
}

func TestParamsVariants(t *testing.T) {
	// The protocol must hold for non-default approximation parameters too.
	for _, p := range []lds.Params{
		{Delta: 0.4, Lambda: 3},
		{Delta: 0.1, Lambda: 20},
		{Delta: 1.0, Lambda: 1},
	} {
		c := New(120, p)
		edges := gen.ErdosRenyi(120, 900, 97)
		c.InsertBatch(edges)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
		c.DeleteBatch(edges[:450])
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("params %+v after delete: %v", p, err)
		}
	}
}

func BenchmarkLinearizableRead(b *testing.B) {
	const n = 10000
	c := newC(n)
	c.InsertBatch(gen.ChungLu(n, 50000, 2.4, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint32(i % n))
	}
}

func BenchmarkReadDuringBatch(b *testing.B) {
	const n = 10000
	c := newC(n)
	edges := gen.ChungLu(n, 60000, 2.4, 2)
	c.InsertBatch(edges[:30000])
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				c.DeleteBatch(edges[30000:])
			} else {
				c.InsertBatch(edges[30000:])
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint32(i % n))
	}
	b.StopTimer()
	close(stop)
	<-done
}
