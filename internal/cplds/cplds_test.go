package cplds

import (
	"sync"
	"sync/atomic"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/plds"
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
	if c.BatchNumber() != 0 {
		t.Fatalf("initial batch number = %d", c.BatchNumber())
	}
	c.InsertBatch([]graph.Edge{graph.E(0, 1)})
	if c.BatchNumber() != 1 {
		t.Fatalf("batch number = %d, want 1", c.BatchNumber())
	}
	c.DeleteBatch([]graph.Edge{graph.E(0, 1)})
	if c.BatchNumber() != 2 {
		t.Fatalf("batch number = %d, want 2", c.BatchNumber())
	}
	// A batch that changes no edge is no batch: empty, self-loop-only,
	// re-inserting a present edge, deleting an absent one. None moves the
	// batch number or commits an epoch.
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
		if c.BatchNumber() != 3 || c.Epoch() != 3 {
			t.Fatalf("no-op batch %d: batch number %d, epoch %d, want 3 and 3", i, c.BatchNumber(), c.Epoch())
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorLifecycleAndOldLevels(t *testing.T) {
	const n = 200
	c := newC(n)
	base := gen.ChungLu(n, 1200, 2.3, 82)
	c.InsertBatch(base)
	pre := make([]int32, n)
	for v := uint32(0); v < n; v++ {
		pre[v] = c.P.Level(v)
	}
	var sawMarked int
	c.beforeUnmark = func(kind plds.Kind, marked []uint32) {
		sawMarked = len(marked)
		for _, v := range marked {
			d := c.DescriptorOf(v)
			if d == nil {
				t.Errorf("marked vertex %d has nil descriptor", v)
				continue
			}
			if d.OldLevel() != pre[v] {
				t.Errorf("vertex %d: OldLevel %d != pre-batch level %d", v, d.OldLevel(), pre[v])
			}
			if c.P.Level(v) == pre[v] {
				t.Errorf("marked vertex %d did not actually change level", v)
			}
		}
	}
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

func TestDAGRootsAreMinimumAndLemma63(t *testing.T) {
	const n = 300
	c := newC(n)
	c.InsertBatch(gen.ChungLu(n, 1500, 2.3, 84))
	checked := false
	c.beforeUnmark = func(kind plds.Kind, marked []uint32) {
		movedSet := map[uint32]bool{}
		for _, v := range marked {
			movedSet[v] = true
		}
		root := map[uint32]uint32{}
		for _, v := range marked {
			r, ok := c.findRoot(v)
			if !ok {
				t.Errorf("findRoot failed for marked vertex %d", v)
				continue
			}
			root[v] = r
			d := c.DescriptorOf(r)
			if d == nil {
				t.Errorf("root %d of %d is unmarked", r, v)
				continue
			}
			if p, isRoot := d.Parent(); !isRoot {
				t.Errorf("root %d of %d has parent %d", r, v, p)
			}
			if r > v {
				t.Errorf("root %d greater than member %d (deterministic min-link violated)", r, v)
			}
			checked = true
		}
		// Lemma 6.3: no batch edge with both endpoints moved crosses DAGs.
		for _, de := range c.batchDir {
			u, w := de.U, de.V
			if movedSet[u] && movedSet[w] && root[u] != root[w] {
				t.Errorf("batch edge (%d,%d) crosses DAGs: roots %d vs %d",
					u, w, root[u], root[w])
			}
		}
	}
	c.InsertBatch(gen.ChungLu(n, 1500, 2.3, 85))
	if !checked {
		t.Fatal("no DAGs formed")
	}
}

func TestLemma63UnderDeletions(t *testing.T) {
	const n = 300
	c := newC(n)
	edges := gen.ChungLu(n, 2500, 2.3, 86)
	c.InsertBatch(edges)
	var anyMarked atomic.Bool
	c.beforeUnmark = func(kind plds.Kind, marked []uint32) {
		if kind != plds.Delete {
			return
		}
		if len(marked) > 0 {
			anyMarked.Store(true)
		}
		movedSet := map[uint32]bool{}
		for _, v := range marked {
			movedSet[v] = true
		}
		root := map[uint32]uint32{}
		for _, v := range marked {
			if r, ok := c.findRoot(v); ok {
				root[v] = r
			}
		}
		for _, de := range c.batchDir {
			u, w := de.U, de.V
			if movedSet[u] && movedSet[w] && root[u] != root[w] {
				t.Errorf("deleted edge (%d,%d) crosses DAGs", u, w)
			}
		}
	}
	c.DeleteBatch(edges[:len(edges)/2])
	if !anyMarked.Load() {
		t.Fatal("deletion batch marked no vertices")
	}
}

// buildCascade returns a CPLDS and a batch whose insertion forces vertex 0
// (and a cluster around it) to climb several levels: a clique among
// vertices 0..k-1 is inserted in one batch on an empty region.
func buildCascade(n, k int) (*CPLDS, []graph.Edge) {
	c := newC(n)
	var batch []graph.Edge
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			batch = append(batch, graph.E(uint32(i), uint32(j)))
		}
	}
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
			pre[v] = c.P.Level(uint32(v)) // all zero
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
	// Linearizability across causally dependent vertices: once any reader
	// has seen a post-batch level of any vertex in a dependency DAG, no
	// later read may return a pre-batch level of a vertex in the same DAG.
	// With a single clique batch, all movers belong to one DAG (every batch
	// edge connects movers — Lemma 6.3), so the check applies globally.
	// Within one goroutine, a read is invoked strictly after the previous
	// read responded, so program order is real-time order and the check is
	// sound: once a goroutine has seen a post-batch level of any vertex in
	// the (single, clique-wide) DAG, none of its later reads may return a
	// pre-batch level of another member. Cross-goroutine order cannot be
	// timestamped without instrumenting the reads themselves, so each
	// goroutine is checked independently.
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
	// batches; every batch's marked DAG must be valid before its unmark,
	// and afterwards the structure must be unmarked, invariant-clean, and
	// reads must agree with live levels.
	const n = 500
	c := newC(n)
	checkDAGAtUnmark(t, c, nil)
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

func TestUnionDeterministicRoot(t *testing.T) {
	c := newC(10)
	// Manually mark three vertices (via their pooled descriptors) and
	// union them pairwise.
	for _, v := range []uint32{3, 5, 7} {
		d := &c.pool[v]
		d.word.Store(packWord(c.stamp, Root))
		c.desc[v].Store(d)
	}
	c.union(5, 7)
	c.union(7, 3)
	for _, v := range []uint32{3, 5, 7} {
		r, ok := c.findRoot(v)
		if !ok || r != 3 {
			t.Fatalf("root of %d = %d (ok=%v), want 3", v, r, ok)
		}
	}
	// check_DAG sees all three as marked.
	for _, v := range []uint32{3, 5, 7} {
		if c.checkDAG(c.desc[v].Load()) != Marked {
			t.Fatalf("vertex %d not marked via DAG", v)
		}
	}
	// Unmark the root: all become unmarked via the early-exit rule.
	c.desc[3].Store(nil)
	if c.checkDAG(c.desc[5].Load()) != Unmarked {
		t.Fatal("unmarked root not detected from non-root")
	}
}

func TestCheckDAGPathCompression(t *testing.T) {
	c := newC(10)
	// Chain 0 <- 1 <- 2 (2's parent is 1, 1's parent is 0).
	for _, v := range []uint32{0, 1, 2} {
		d := &c.pool[v]
		d.word.Store(packWord(c.stamp, Root))
		c.desc[v].Store(d)
	}
	c.desc[1].Load().word.Store(packWord(c.stamp, 0))
	c.desc[2].Load().word.Store(packWord(c.stamp, 1))
	if c.checkDAG(c.desc[2].Load()) != Marked {
		t.Fatal("chain should be marked")
	}
	// After checkDAG, vertex 2 should point directly at the root 0.
	if p, _ := c.desc[2].Load().Parent(); p != 0 {
		t.Fatalf("path not compressed: parent of 2 = %d, want 0", p)
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
		c.beforeUnmark = func(plds.Kind, []uint32) {
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
