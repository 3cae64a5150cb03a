package kcore

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"kcore/internal/lds"
	"kcore/internal/shard"
	"kcore/internal/wal"
)

// scriptOp is one replayable update batch of the recovery tests.
type scriptOp struct {
	ins, del []Edge
}

// randScript builds a deterministic batch script: random insertions with a
// fraction of earlier edges deleted again, the churn shape of the traces.
func randScript(n, batches, perBatch int, seed int64) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	var inserted []Edge
	script := make([]scriptOp, batches)
	for i := range script {
		for j := 0; j < perBatch; j++ {
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			if u == v {
				v = (v + 1) % uint32(n)
			}
			script[i].ins = append(script[i].ins, Edge{U: u, V: v})
		}
		inserted = append(inserted, script[i].ins...)
		if i >= 2 {
			for j := 0; j < perBatch/4; j++ {
				script[i].del = append(script[i].del, inserted[rng.Intn(len(inserted))])
			}
		}
	}
	return script
}

func applyScript(d *Decomposition, script []scriptOp) {
	for _, op := range script {
		if len(op.ins) > 0 {
			d.InsertEdges(op.ins)
		}
		if len(op.del) > 0 {
			d.DeleteEdges(op.del)
		}
	}
}

// engineState captures everything recovery must reproduce exactly.
type engineState struct {
	coreness []float64
	epoch    uint64
	batches  uint64
	edges    int64
}

func captureState(d *Decomposition) engineState {
	out := make([]float64, d.NumVertices())
	ep := d.eng.ReadAllPinned(out)
	return engineState{coreness: out, epoch: ep, batches: d.BatchNumber(), edges: d.NumEdges()}
}

func requireSameState(t *testing.T, got, want engineState, label string) {
	t.Helper()
	if got.epoch != want.epoch {
		t.Fatalf("%s: epoch %d, want %d", label, got.epoch, want.epoch)
	}
	if got.batches != want.batches {
		t.Fatalf("%s: batch number %d, want %d", label, got.batches, want.batches)
	}
	if got.edges != want.edges {
		t.Fatalf("%s: %d edges, want %d", label, got.edges, want.edges)
	}
	for v := range want.coreness {
		if got.coreness[v] != want.coreness[v] {
			t.Fatalf("%s: coreness[%d] = %v, want %v", label, v, got.coreness[v], want.coreness[v])
		}
	}
}

// testRecoveryClean shuts the logged run down cleanly, reopens the WAL
// directory and demands the exact pre-shutdown state — and that the
// recovered state matches an uninterrupted, never-logged run bit for bit.
func testRecoveryClean(t *testing.T, shards int) {
	const n = 200
	dir := t.TempDir()
	script := randScript(n, 8, 40, 1)

	d1, err := New(n, WithShards(shards), WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(d1, script)
	want := captureState(d1)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := New(n, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(ref, script)
	requireSameState(t, captureState(ref), want, "unlogged reference")

	d2, err := New(n, WithShards(shards), WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	requireSameState(t, captureState(d2), want, "recovered")
	if err := d2.Check(); err != nil {
		t.Fatalf("recovered invariants: %v", err)
	}
	st, ok := d2.DurabilityStats()
	if !ok || st.RecoveredBatches == 0 {
		t.Fatalf("expected recovered batches in stats, got %+v (ok=%v)", st, ok)
	}

	// The recovered engine must keep working — and stay in lockstep with
	// the reference under further updates.
	more := randScript(n, 3, 40, 2)
	applyScript(d2, more)
	applyScript(ref, more)
	requireSameState(t, captureState(d2), captureState(ref), "post-recovery updates")
}

func TestWALRecoverySingle(t *testing.T)  { testRecoveryClean(t, 1) }
func TestWALRecoverySharded(t *testing.T) { testRecoveryClean(t, 4) }

// lastSegment returns the path of the highest-sequence log segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "wal-") && strings.HasSuffix(ent.Name(), ".seg") {
			if last == "" || ent.Name() > last {
				last = ent.Name()
			}
		}
	}
	if last == "" {
		t.Fatal("no log segment found")
	}
	return filepath.Join(dir, last)
}

// sameShardEdges builds edges whose endpoints the sharded engine assigns
// to one shard, so one InsertEdges call commits exactly one log record —
// which makes "cut the last record" deterministic in sharded mode too.
func sameShardEdges(eng *shard.Engine, n, count int) []Edge {
	target := eng.ShardOf(0)
	var owned []uint32
	for v := uint32(0); int(v) < n; v++ {
		if eng.ShardOf(v) == target {
			owned = append(owned, v)
		}
	}
	rng := rand.New(rand.NewSource(7))
	edges := make([]Edge, 0, count)
	for len(edges) < count {
		u := owned[rng.Intn(len(owned))]
		v := owned[rng.Intn(len(owned))]
		if u != v {
			edges = append(edges, Edge{U: u, V: v})
		}
	}
	return edges
}

// testRecoveryTornTail crashes with a half-written final record: the tail
// must be truncated and recovery must land exactly on the state after the
// last *intact* batch.
func testRecoveryTornTail(t *testing.T, shards int) {
	const n = 200
	const batches = 6
	dir := t.TempDir()

	d1, err := New(n, WithShards(shards), WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	// One single-shard insert batch per log record (trivially true with one
	// shard; forced via vertex ownership when sharded).
	var pool []Edge
	if shards > 1 {
		pool = sameShardEdges(d1.eng, n, batches*5+25)
	}
	var script [][]Edge
	for i := 0; i < batches; i++ {
		var edges []Edge
		if shards == 1 {
			edges = randScript(n, 1, 30, int64(10+i))[0].ins
		} else {
			edges = pool[i*5 : i*5+25]
		}
		script = append(script, edges)
		d1.InsertEdges(edges)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop into the last record (every record here carries
	// 25+ edges, so 8 bytes is strictly inside it).
	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-8); err != nil {
		t.Fatal(err)
	}

	ref, err := New(n, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	for _, edges := range script[:batches-1] {
		ref.InsertEdges(edges)
	}

	d2, err := New(n, WithShards(shards), WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	requireSameState(t, captureState(d2), captureState(ref), "torn-tail recovery")
	if err := d2.Check(); err != nil {
		t.Fatalf("recovered invariants: %v", err)
	}
}

func TestWALTornTailSingle(t *testing.T)  { testRecoveryTornTail(t, 1) }
func TestWALTornTailSharded(t *testing.T) { testRecoveryTornTail(t, 4) }

// TestWALSnapshotPlusTail recovers from a snapshot plus a post-snapshot
// log tail, the steady-state recovery shape.
func TestWALSnapshotPlusTail(t *testing.T) {
	for _, shards := range []int{1, 4} {
		const n = 200
		dir := t.TempDir()
		pre := randScript(n, 5, 40, 3)
		post := randScript(n, 4, 40, 4)

		d1, err := New(n, WithShards(shards), WithWAL(dir, WALOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		applyScript(d1, pre)
		if err := d1.Snapshot(); err != nil {
			t.Fatal(err)
		}
		applyScript(d1, post)
		want := captureState(d1)
		st, _ := d1.DurabilityStats()
		if st.Snapshots != 1 || st.LastSnapshotEpoch == 0 {
			t.Fatalf("shards=%d: snapshot not recorded in stats: %+v", shards, st)
		}
		if err := d1.Close(); err != nil {
			t.Fatal(err)
		}

		// Recovery alone keeps the cross-shard vector log in lockstep with
		// the restored and replayed shard epochs: no retention setup
		// follows wal.Open here.
		eng := shard.New(n, shards, lds.DefaultParams())
		m, err := wal.Open(dir, eng, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("shards=%d: bare engine after recovery: %v", shards, err)
		}
		if eng.Epoch() != want.epoch {
			t.Fatalf("shards=%d: bare engine recovered epoch %d, want %d", shards, eng.Epoch(), want.epoch)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		d2, err := New(n, WithShards(shards), WithWAL(dir, WALOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, captureState(d2), want, "snapshot+tail recovery")
		if err := d2.Check(); err != nil {
			t.Fatal(err)
		}
		d2.Close()
	}
}

// TestWALSnapshotOnly recovers from a snapshot with an empty tail: all
// pre-snapshot segments must have been purged, and the state must still be
// exact.
func TestWALSnapshotOnly(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	script := randScript(n, 5, 40, 5)
	d1, err := New(n, WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(d1, script)
	if err := d1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := captureState(d1)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(n, WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	st, _ := d2.DurabilityStats()
	if st.RecoveredBatches != 0 {
		t.Fatalf("replayed %d batches, want 0 (all covered by the snapshot)", st.RecoveredBatches)
	}
	requireSameState(t, captureState(d2), want, "snapshot-only recovery")
}

// TestWALAutoSnapshot drives enough batches through SnapshotEvery to
// trigger the asynchronous snapshot and verifies it lands.
func TestWALAutoSnapshot(t *testing.T) {
	const n = 100
	dir := t.TempDir()
	d, err := New(n, WithShards(2), WithWAL(dir, WALOptions{SnapshotEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(d, randScript(n, 12, 20, 6))
	// Close waits for the in-flight auto-snapshot goroutine.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".ksnp") {
			found = true
		}
	}
	if !found {
		t.Fatal("no snapshot written after SnapshotEvery batches")
	}
}

// TestWALConfigMismatch rejects reopening a directory with a different
// engine shape instead of silently recovering garbage.
func TestWALConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	d, err := New(100, WithShards(2), WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	d.InsertEdges([]Edge{{U: 1, V: 2}})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(101, WithShards(2), WithWAL(dir, WALOptions{})); err == nil {
		t.Fatal("reopening with a different vertex count succeeded")
	}
	if _, err := New(100, WithShards(3), WithWAL(dir, WALOptions{})); err == nil {
		t.Fatal("reopening with a different shard count succeeded")
	}
}

// TestWALConcurrentWritersAndSnapshots races concurrent client updates
// against auto-snapshots and a manual snapshot, then verifies clean
// recovery — the -race exercise for the quiesce/hook interplay.
func TestWALConcurrentWritersAndSnapshots(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	d, err := New(n, WithShards(4), WithWAL(dir, WALOptions{SnapshotEvery: 8}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, op := range randScript(n, 10, 25, int64(100+w)) {
				if len(op.ins) > 0 {
					d.InsertEdges(op.ins)
				}
				if len(op.del) > 0 {
					d.DeleteEdges(op.del)
				}
				if w == 0 && i == 5 {
					if err := d.Snapshot(); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := captureState(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(n, WithShards(4), WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	requireSameState(t, captureState(d2), want, "concurrent-run recovery")
	if err := d2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestWALRequiresOption pins the no-WAL behaviour of the durability API.
func TestWALRequiresOption(t *testing.T) {
	d, err := New(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err == nil {
		t.Fatal("Snapshot without WithWAL succeeded")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close without WithWAL: %v", err)
	}
	if _, ok := d.DurabilityStats(); ok {
		t.Fatal("DurabilityStats reported ok without WithWAL")
	}
}
