package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kcore/internal/graph"
)

// decodeRec decodes a delivered record's frame and checks that its header
// repeats the record's Shard and Epoch.
func decodeRec(t *testing.T, rec Record, shards int) Batch {
	t.Helper()
	b, n, ok := DecodeRecord(rec.Frame, shards)
	if !ok || n != len(rec.Frame) {
		t.Fatalf("record frame does not decode (ok=%v, %d of %d bytes)", ok, n, len(rec.Frame))
	}
	if b.Shard != rec.Shard || b.Epoch != rec.Epoch {
		t.Fatalf("frame says shard %d epoch %d, record says shard %d epoch %d", b.Shard, b.Epoch, rec.Shard, rec.Epoch)
	}
	return b
}

func TestTailSourceBootstrapStreamsOnlyLaterBatches(t *testing.T) {
	eng := newFakeEngine(8, 2)
	src := NewTailSource(eng)
	defer src.Close()

	pre := testBatches()[:2]
	for _, b := range pre {
		eng.commit(b)
	}
	states, tr, err := src.Bootstrap(16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if len(states) != 2 {
		t.Fatalf("bootstrap returned %d states, want 2", len(states))
	}
	if states[0].Epoch != 1 || states[1].Epoch != 1 {
		t.Fatalf("bootstrap epochs = %d,%d, want 1,1", states[0].Epoch, states[1].Epoch)
	}

	post := testBatches()[2:]
	for _, b := range post {
		eng.commit(b)
	}
	for i, want := range post {
		got := decodeRec(t, <-tr.C(), 2)
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("tail batch %d = %+v, want %+v", i, got, want)
		}
	}
	select {
	case b := <-tr.C():
		t.Fatalf("unexpected extra tail batch %+v", b)
	default:
	}
}

func TestTailPublishDeepCopies(t *testing.T) {
	eng := newFakeEngine(8, 1)
	src := NewTailSource(eng)
	defer src.Close()
	_, tr, err := src.Bootstrap(4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	first := Batch{Shard: 0, Epoch: 1, Ins: []graph.Edge{{U: 1, V: 2}}, HasIns: true}
	eng.commit(first)
	got := <-tr.C()
	// The next commit re-encodes into the same per-shard scratch (an
	// equal-sized record, so the buffer is reused, not regrown).
	scratch := &src.bufs[0][0]
	eng.commit(Batch{Shard: 0, Epoch: 2, Ins: []graph.Edge{{U: 5, V: 6}}, HasIns: true})
	if &src.bufs[0][0] != scratch {
		t.Fatal("equal-sized commit regrew the scratch; the aliasing check below is vacuous")
	}
	if &got.Frame[0] == scratch {
		t.Fatal("delivered frame aliases the per-shard encode scratch")
	}
	if b := decodeRec(t, got, 1); !reflect.DeepEqual(normalize(b), first) {
		t.Fatalf("delivered record changed under the next commit: %+v, want %+v", b, first)
	}
	if b := decodeRec(t, <-tr.C(), 1); b.Epoch != 2 || b.Ins[0] != (graph.Edge{U: 5, V: 6}) {
		t.Fatalf("second record = %+v", b)
	}
}

func TestTailOverrunDisconnects(t *testing.T) {
	eng := newFakeEngine(8, 1)
	src := NewTailSource(eng)
	defer src.Close()
	_, tr, err := src.Bootstrap(2)
	if err != nil {
		t.Fatal(err)
	}
	for ep := uint64(1); ep <= 3; ep++ {
		eng.commit(Batch{Shard: 0, Epoch: ep, HasIns: true})
	}
	// Buffer of 2: the third publish overruns and closes the channel.
	n := 0
	for range tr.C() {
		n++
	}
	if n != 2 {
		t.Fatalf("read %d batches before overrun close, want 2", n)
	}
	if !tr.Overrun() {
		t.Fatal("Overrun() = false after a dropped subscription")
	}
	// Later commits must not panic on the closed subscription.
	eng.commit(Batch{Shard: 0, Epoch: 4, HasIns: true})
}

func TestResumeReplaysExactlyAfterCursor(t *testing.T) {
	eng := newFakeEngine(8, 2)
	src := NewTailSource(eng)
	defer src.Close()
	src.SetRetain(16)

	all := testBatches()
	for _, b := range all {
		eng.commit(b)
	}
	// Cursor after the first two batches (shard epochs 1,1): the replay
	// must be exactly the later three, in publish order.
	replay, cur, tr, ok, err := src.Resume([]uint64{1, 1}, 4)
	if err != nil || !ok {
		t.Fatalf("Resume(1,1) = ok=%v err=%v, want covered", ok, err)
	}
	defer tr.Close()
	if want := []uint64{3, 2}; !reflect.DeepEqual(cur, want) {
		t.Fatalf("current vector %v, want %v", cur, want)
	}
	if len(replay) != 3 {
		t.Fatalf("replay of %d batches, want 3", len(replay))
	}
	for i, want := range all[2:] {
		if got := decodeRec(t, replay[i], 2); !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("replay[%d] = %+v, want %+v", i, got, want)
		}
	}
	// The tail starts exactly after the capture: a batch committed now is
	// delivered, nothing is doubled.
	eng.commit(Batch{Shard: 1, Epoch: 3, HasIns: true})
	got := <-tr.C()
	if got.Shard != 1 || got.Epoch != 3 {
		t.Fatalf("tail batch = shard %d epoch %d, want shard 1 epoch 3", got.Shard, got.Epoch)
	}
	select {
	case b := <-tr.C():
		t.Fatalf("unexpected extra tail batch %+v", b)
	default:
	}

	// A caught-up cursor replays nothing.
	replay, _, tr2, ok, err := src.Resume([]uint64{3, 3}, 4)
	if err != nil || !ok || len(replay) != 0 {
		t.Fatalf("caught-up Resume = replay %d ok=%v err=%v, want empty+covered", len(replay), ok, err)
	}
	tr2.Close()

	// A cursor ahead of the primary (replaced primary) is not resumable.
	if _, _, _, ok, _ := src.Resume([]uint64{9, 9}, 4); ok {
		t.Fatal("Resume accepted a cursor ahead of the primary")
	}
	// Shape mismatch is an error, not a stale.
	if _, _, _, _, err := src.Resume([]uint64{1}, 4); err == nil {
		t.Fatal("Resume accepted a wrong-length vector")
	}
}

func TestResumeStaleAfterEviction(t *testing.T) {
	eng := newFakeEngine(8, 1)
	src := NewTailSource(eng)
	defer src.Close()
	src.SetRetain(2)

	for ep := uint64(1); ep <= 5; ep++ {
		eng.commit(Batch{Shard: 0, Epoch: ep, HasIns: true})
	}
	// Ring of 2 holds epochs {4,5}; low-water is 3.
	if replay, _, tr, ok, err := src.Resume([]uint64{3}, 4); err != nil || !ok || len(replay) != 2 {
		t.Fatalf("Resume(3) = replay %d ok=%v err=%v, want 2 batches covered", len(replay), ok, err)
	} else {
		tr.Close()
	}
	// Epoch 2 was evicted: the gap is unservable.
	if _, _, _, ok, err := src.Resume([]uint64{2}, 4); ok || err != nil {
		t.Fatalf("Resume(2) = ok=%v err=%v, want stale", ok, err)
	}
	// Batches committed before SetRetain are never resumable: reconfigure
	// and check the old coverage is gone.
	src.SetRetain(8)
	if _, _, _, ok, _ := src.Resume([]uint64{3}, 4); ok {
		t.Fatal("Resume covered batches from before SetRetain")
	}
	eng.commit(Batch{Shard: 0, Epoch: 6, HasIns: true})
	if replay, _, tr, ok, err := src.Resume([]uint64{5}, 4); err != nil || !ok || len(replay) != 1 {
		t.Fatalf("post-reconfigure Resume(5) = replay %d ok=%v err=%v, want 1 batch", len(replay), ok, err)
	} else {
		tr.Close()
	}
}

func TestResumeDisabledRetention(t *testing.T) {
	eng := newFakeEngine(8, 1)
	src := NewTailSource(eng)
	defer src.Close()
	// No SetRetain: every cursor is stale.
	eng.commit(Batch{Shard: 0, Epoch: 1, HasIns: true})
	if _, _, _, ok, err := src.Resume([]uint64{1}, 4); ok || err != nil {
		t.Fatalf("Resume with retention off = ok=%v err=%v, want stale", ok, err)
	}
}

func TestManagerBootstrapTeesWhileLogging(t *testing.T) {
	dir := t.TempDir()
	eng := newFakeEngine(8, 2)
	m, err := Open(dir, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.commit(testBatches()[0])
	states, tr, err := m.Tail().Bootstrap(16)
	if err != nil {
		t.Fatal(err)
	}
	if states[0].Epoch != 1 {
		t.Fatalf("bootstrap shard 0 epoch = %d, want 1", states[0].Epoch)
	}
	eng.commit(testBatches()[3]) // shard 0, epoch 3 in the fixture set
	got := <-tr.C()
	if got.Shard != 0 || got.Epoch != 3 {
		t.Fatalf("tail batch = shard %d epoch %d, want shard 0 epoch 3", got.Shard, got.Epoch)
	}
	if st := m.Stats(); st.LoggedBatches != 2 {
		t.Fatalf("logged %d batches, want 2 (tee must not replace the log)", st.LoggedBatches)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-tr.C(); ok {
		t.Fatal("tail channel still open after manager close")
	}
	if _, _, err := m.Tail().Bootstrap(1); err == nil {
		t.Fatal("Bootstrap succeeded after Close")
	}
}

// TestManagerTailShipsSegmentBytes pins the one encoding: the frame a
// follower receives is byte for byte what the segment stores after its
// header.
func TestManagerTailShipsSegmentBytes(t *testing.T) {
	dir := t.TempDir()
	eng := newFakeEngine(8, 2)
	m, err := Open(dir, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, tr, err := m.Tail().Bootstrap(16)
	if err != nil {
		t.Fatal(err)
	}
	var shipped []byte
	for _, b := range testBatches() {
		eng.commit(b)
		shipped = append(shipped, (<-tr.C()).Frame...)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg[segHdrLen:], shipped) {
		t.Fatalf("segment body (%d bytes) differs from the shipped frames (%d bytes)", len(seg)-segHdrLen, len(shipped))
	}
}

// TestManagerOnBatchAllocs guards the durable commit hook: with no
// subscriber and no retained ring, encoding into the per-shard scratch,
// appending and (not) publishing allocate nothing.
func TestManagerOnBatchAllocs(t *testing.T) {
	eng := newFakeEngine(8, 1)
	m, err := Open(t.TempDir(), eng, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := Batch{Shard: 0, Epoch: 1, Ins: []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, Del: []graph.Edge{{U: 3, V: 4}}, HasIns: true, HasDel: true}
	if allocs := testing.AllocsPerRun(100, func() { m.onBatch(b) }); allocs != 0 {
		t.Fatalf("onBatch allocates %.1f times per batch, want 0", allocs)
	}
}

func TestShardStateMarshalRoundTrip(t *testing.T) {
	eng := newFakeEngine(8, 2)
	eng.epochs[1] = 42
	st := eng.ShardDurable(1)
	st.Levels[3] = 7
	buf := MarshalShardState(nil, 8, st)
	got, used, err := UnmarshalShardState(buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Fatalf("consumed %d of %d bytes", used, len(buf))
	}
	if got.Epoch != st.Epoch || got.Inserted != st.Inserted || got.Deleted != st.Deleted {
		t.Fatalf("counters differ: %+v vs %+v", got, st)
	}
	if !reflect.DeepEqual(got.Levels, st.Levels) {
		t.Fatal("levels differ after round trip")
	}
	if !reflect.DeepEqual(got.Graph.Targets, st.Graph.Targets) ||
		!reflect.DeepEqual(got.Graph.Offsets, st.Graph.Offsets) {
		t.Fatal("graph differs after round trip")
	}
	if _, _, err := UnmarshalShardState(buf[:len(buf)-2], 8); err == nil {
		t.Fatal("UnmarshalShardState accepted a truncated block")
	}
}
