package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
)

// fakeEngine is a minimal Engine: per-shard state is the list of batches
// applied plus a fixed per-shard graph, enough to exercise the log and
// snapshot machinery without a real decomposition.
type fakeEngine struct {
	n, shards int

	mu       sync.Mutex
	logFn    func(Batch)
	applied  [][]Batch
	epochs   []uint64
	restored []ShardState
}

func newFakeEngine(n, shards int) *fakeEngine {
	return &fakeEngine{
		n: n, shards: shards,
		applied:  make([][]Batch, shards),
		epochs:   make([]uint64, shards),
		restored: make([]ShardState, shards),
	}
}

func (f *fakeEngine) NumVertices() int           { return f.n }
func (f *fakeEngine) NumShards() int             { return f.shards }
func (f *fakeEngine) SetBatchLog(fn func(Batch)) { f.logFn = fn }

func (f *fakeEngine) Quiesce(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn()
}

func (f *fakeEngine) ApplyLogged(b Batch) {
	f.applied[b.Shard] = append(f.applied[b.Shard], cloneBatch(b))
	f.epochs[b.Shard] = b.Epoch
}

func (f *fakeEngine) ShardDurable(si int) ShardState {
	return ShardState{
		Graph:    graph.CSRFromEdges(f.n, []graph.Edge{{U: uint32(si), V: uint32(si + 1)}}),
		Levels:   make([]int32, f.n),
		Epoch:    f.epochs[si],
		Inserted: int64(si),
		Deleted:  int64(len(f.applied[si])),
	}
}

func (f *fakeEngine) ShardEpoch(si int) uint64 { return f.epochs[si] }

func (f *fakeEngine) RestoreShard(si int, st ShardState) error {
	f.restored[si] = st
	f.epochs[si] = st.Epoch
	return nil
}

// commit simulates the live path: apply then log, under the quiesce lock.
func (f *fakeEngine) commit(b Batch) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applied[b.Shard] = append(f.applied[b.Shard], cloneBatch(b))
	f.epochs[b.Shard] = b.Epoch
	if f.logFn != nil {
		f.logFn(b)
	}
}

func cloneBatch(b Batch) Batch {
	b.Ins = append([]graph.Edge(nil), b.Ins...)
	b.Del = append([]graph.Edge(nil), b.Del...)
	return b
}

func testBatches() []Batch {
	return []Batch{
		{Shard: 0, Epoch: 1, Ins: []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, HasIns: true},
		{Shard: 1, Epoch: 1, Ins: []graph.Edge{{U: 3, V: 4}}, HasIns: true},
		{Shard: 0, Epoch: 2, HasIns: true}, // a record without edges still round-trips
		{Shard: 0, Epoch: 3, Del: []graph.Edge{{U: 0, V: 1}}, HasDel: true},
		{Shard: 1, Epoch: 2, Ins: []graph.Edge{{U: 4, V: 5}}, Del: []graph.Edge{{U: 3, V: 4}}, HasIns: true, HasDel: true},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, b := range testBatches() {
		frame := encodeRecord(nil, b)
		got, n, ok := nextRecord(frame, 2)
		if !ok {
			t.Fatalf("batch %d: nextRecord rejected a fresh frame", i)
		}
		if n != len(frame) {
			t.Fatalf("batch %d: consumed %d of %d bytes", i, n, len(frame))
		}
		if got.Shard != b.Shard || got.Epoch != b.Epoch || got.HasIns != b.HasIns || got.HasDel != b.HasDel {
			t.Fatalf("batch %d: header mismatch: %+v vs %+v", i, got, b)
		}
		if len(got.Ins) != len(b.Ins) || len(got.Del) != len(b.Del) {
			t.Fatalf("batch %d: edge counts differ", i)
		}
		for j := range b.Ins {
			if got.Ins[j] != b.Ins[j] {
				t.Fatalf("batch %d: ins[%d] = %v, want %v", i, j, got.Ins[j], b.Ins[j])
			}
		}
	}
}

func TestDecodeRecordBoundsChecks(t *testing.T) {
	// A payload claiming a huge edge count must fail cleanly instead of
	// allocating count*8 bytes.
	b := Batch{Shard: 0, Epoch: 1, HasIns: true}
	frame := encodeRecord(nil, b)
	payload := frame[frameLen:]
	payload[13] = 0xff // insCount low byte -> 255, but no edge bytes follow
	if _, err := decodeRecord(payload, 1); err == nil {
		t.Fatal("decodeRecord accepted an edge count exceeding the payload")
	}
	if _, err := decodeRecord(payload[:5], 1); err == nil {
		t.Fatal("decodeRecord accepted a too-short payload")
	}
	if _, err := decodeRecord(frame[frameLen:], 0); err == nil {
		t.Fatal("decodeRecord accepted an out-of-range shard")
	}
}

// writeTestLog appends the batches through a real segLog and closes it,
// returning the directory.
func writeTestLog(t *testing.T, batches []Batch) string {
	t.Helper()
	dir := t.TempDir()
	lg, replayed, err := scanAndOpen(dir, 8, 2, Options{}.withDefaults(), func(Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("fresh dir replayed %d records", replayed)
	}
	for _, b := range batches {
		if err := lg.append(encodeRecord(nil, b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func scanCount(t *testing.T, dir string) (int, []Batch) {
	t.Helper()
	var got []Batch
	lg, replayed, err := scanAndOpen(dir, 8, 2, Options{}.withDefaults(), func(b Batch) error {
		got = append(got, cloneBatch(b))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lg.close()
	return int(replayed), got
}

func TestScanReplaysAll(t *testing.T) {
	batches := testBatches()
	dir := writeTestLog(t, batches)
	n, got := scanCount(t, dir)
	if n != len(batches) {
		t.Fatalf("replayed %d of %d records", n, len(batches))
	}
	for i := range batches {
		if !reflect.DeepEqual(normalize(got[i]), normalize(batches[i])) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], batches[i])
		}
	}
}

// normalize maps nil and empty edge slices together for comparison.
func normalize(b Batch) Batch {
	if len(b.Ins) == 0 {
		b.Ins = nil
	}
	if len(b.Del) == 0 {
		b.Del = nil
	}
	return b
}

// TestScanRefusesVersion1Segment: a version-1 log may hold records of
// sub-batches that changed nothing, whose epochs the engine no longer
// commits; replaying it would leave the engine behind the record epochs.
// Such a segment is refused whole, not replayed.
func TestScanRefusesVersion1Segment(t *testing.T) {
	dir := writeTestLog(t, testBatches())
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:], 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	_, _, err = scanAndOpen(dir, 8, 2, Options{}.withDefaults(), func(Batch) error {
		replayed++
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("scan of a version-1 segment: %v", err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d records of a version-1 segment", replayed)
	}
}

func TestScanTruncatesTornTail(t *testing.T) {
	batches := testBatches()
	dir := writeTestLog(t, batches)
	path := filepath.Join(dir, segName(1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the end: every cut strictly inside the last record
	// must recover exactly the first len-1 records.
	for cut := int64(1); cut < 12; cut++ {
		dir2 := t.TempDir()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, segName(1)), data[:fi.Size()-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n, _ := scanCount(t, dir2)
		if n != len(batches)-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, n, len(batches)-1)
		}
		// The torn tail must also have been truncated on disk, so the next
		// append continues from the last intact record.
		n2, _ := scanCount(t, dir2)
		if n2 != len(batches)-1 {
			t.Fatalf("cut %d: second scan replayed %d records, want %d", cut, n2, len(batches)-1)
		}
	}
}

func TestScanCorruptCRCDropsSuffix(t *testing.T) {
	batches := testBatches()
	dir := writeTestLog(t, batches)
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the payload of the second record.
	off := segHdrLen
	_, n1, _ := nextRecord(data[off:], 2)
	data[off+n1+frameLen] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, _ := scanCount(t, dir)
	if n != 1 {
		t.Fatalf("replayed %d records after corrupting record 2, want 1", n)
	}
}

func TestRotationAndSegmentScan(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes small enough that every record rotates.
	opt := Options{SegmentBytes: 1}
	opt.SyncEvery = time.Hour
	lg, _, err := scanAndOpen(dir, 8, 2, opt.withDefaults(), func(Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	batches := testBatches()
	for _, b := range batches {
		if err := lg.append(encodeRecord(nil, b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(faultfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < len(batches) {
		t.Fatalf("expected at least %d segments, have %d", len(batches), len(segs))
	}
	n, _ := scanCount(t, dir)
	if n != len(batches) {
		t.Fatalf("replayed %d of %d records across segments", n, len(batches))
	}
	// Tear the tail of the middle segment: later segments must be deleted.
	mid := segs[2]
	path := filepath.Join(dir, segName(mid))
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-1], 0o644)
	n, _ = scanCount(t, dir)
	if n != 2 {
		t.Fatalf("replayed %d records after mid-log tear, want 2", n)
	}
	segs, _ = listSegments(faultfs.OS(), dir)
	for _, s := range segs {
		if s > mid+1 { // mid survives truncated; scanAndOpen opened a fresh head at most
			t.Fatalf("segment %d survived a tear in segment %d", s, mid)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := newFakeEngine(8, 2)
	f.epochs = []uint64{3, 5}
	f.applied[0] = make([]Batch, 3)
	f.applied[1] = make([]Batch, 5)
	states := []ShardState{f.ShardDurable(0), f.ShardDurable(1)}
	if err := writeSnapshot(faultfs.OS(), dir, 8, 2, states); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(faultfs.OS(), filepath.Join(dir, snapName(8)), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for si := range states {
		want := states[si]
		g := got[si]
		if g.Epoch != want.Epoch || g.Inserted != want.Inserted || g.Deleted != want.Deleted {
			t.Fatalf("shard %d: counters mismatch: %+v vs %+v", si, g, want)
		}
		if !reflect.DeepEqual(g.Graph.Offsets, want.Graph.Offsets) || !bytes.Equal(u32bytes(g.Graph.Targets), u32bytes(want.Graph.Targets)) {
			t.Fatalf("shard %d: graph mismatch", si)
		}
		if !reflect.DeepEqual(g.Levels, want.Levels) {
			t.Fatalf("shard %d: levels mismatch", si)
		}
	}
}

func u32bytes(v []uint32) []byte {
	out := make([]byte, 0, len(v)*4)
	for _, x := range v {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}

func TestSnapshotCorruptFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	f := newFakeEngine(8, 1)
	f.epochs[0] = 2
	if err := writeSnapshot(faultfs.OS(), dir, 8, 1, []ShardState{f.ShardDurable(0)}); err != nil {
		t.Fatal(err)
	}
	f.epochs[0] = 7
	if err := writeSnapshot(faultfs.OS(), dir, 8, 1, []ShardState{f.ShardDurable(0)}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newer snapshot.
	path := filepath.Join(dir, snapName(7))
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)

	vec := make([]uint64, 1)
	ep, err := restoreNewestSnapshot(faultfs.OS(), dir, f, vec)
	if err != nil {
		t.Fatal(err)
	}
	if ep != 2 || vec[0] != 2 {
		t.Fatalf("restored epoch %d (vec %v), want fallback to 2", ep, vec)
	}
}

func TestSnapshotConfigMismatchIsHardError(t *testing.T) {
	dir := t.TempDir()
	f := newFakeEngine(8, 1)
	f.epochs[0] = 2
	if err := writeSnapshot(faultfs.OS(), dir, 8, 1, []ShardState{f.ShardDurable(0)}); err != nil {
		t.Fatal(err)
	}
	vec := make([]uint64, 1)
	if _, err := restoreNewestSnapshot(faultfs.OS(), dir, newFakeEngine(9, 1), vec); err == nil {
		t.Fatal("vertex-count mismatch did not fail recovery")
	} else if !isConfigMismatch(err) {
		t.Fatalf("want config mismatch, got %v", err)
	}
	if _, err := Open(dir, newFakeEngine(8, 2), Options{}); err == nil {
		t.Fatal("shard-count mismatch did not fail Open")
	}
}

func TestManagerLogReplayAndStats(t *testing.T) {
	dir := t.TempDir()
	f := newFakeEngine(8, 2)
	m, err := Open(dir, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := testBatches()
	for _, b := range batches {
		f.commit(b)
	}
	st := m.Stats()
	if st.LoggedBatches != uint64(len(batches)) {
		t.Fatalf("logged %d, want %d", st.LoggedBatches, len(batches))
	}
	if st.Sync != "none" || st.Dir != dir || st.Segments != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := newFakeEngine(8, 2)
	m2, err := Open(dir, f2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.RecoveredBatches(); got != uint64(len(batches)) {
		t.Fatalf("recovered %d, want %d", got, len(batches))
	}
	var total int
	for si := range f2.applied {
		total += len(f2.applied[si])
	}
	if total != len(batches) {
		t.Fatalf("engine applied %d batches on recovery, want %d", total, len(batches))
	}
	if f2.epochs[0] != 3 || f2.epochs[1] != 2 {
		t.Fatalf("recovered epochs %v, want [3 2]", f2.epochs)
	}
}

func TestManagerSnapshotSkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	f := newFakeEngine(8, 2)
	m, err := Open(dir, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches() {
		f.commit(b)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f.commit(Batch{Shard: 0, Epoch: 4, Ins: []graph.Edge{{U: 6, V: 7}}, HasIns: true})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := newFakeEngine(8, 2)
	m2, err := Open(dir, f2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// Snapshot covered the first five batches; only the post-snapshot one
	// replays through the engine.
	if got := m2.RecoveredBatches(); got != 1 {
		t.Fatalf("replayed %d batches, want 1 (rest covered by snapshot)", got)
	}
	if f2.restored[0].Epoch != 3 || f2.restored[1].Epoch != 2 {
		t.Fatalf("restored epochs (%d,%d), want (3,2)",
			f2.restored[0].Epoch, f2.restored[1].Epoch)
	}
	if f2.epochs[0] != 4 {
		t.Fatalf("shard 0 epoch %d after tail replay, want 4", f2.epochs[0])
	}
}

func TestManagerAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	f := newFakeEngine(8, 1)
	m, err := Open(dir, f, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		f.commit(Batch{Shard: 0, Epoch: uint64(i), HasIns: true})
	}
	// The snapshot runs asynchronously; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-snapshot did not run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(faultfs.OS(), dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot on disk (err %v)", err)
	}
}

func TestManagerAppendErrorDegrades(t *testing.T) {
	dir := t.TempDir()
	f := newFakeEngine(8, 1)
	// Negative ReattachEvery: no background loop, so the degraded state is
	// stable for the assertions below.
	m, err := Open(dir, f, Options{ReattachEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Force the append to fail by closing the log out from under the hook.
	m.log.close()
	f.commit(Batch{Shard: 0, Epoch: 1, HasIns: true})
	if m.Err() == nil {
		t.Fatal("append onto a closed log did not record a durability error")
	}
	if !m.Degraded() {
		t.Fatal("exhausted append did not flip the manager to degraded")
	}
	st := m.Stats()
	if st.Err == "" || !strings.Contains(st.Err, "close") {
		t.Fatalf("stats error %q does not surface the failure", st.Err)
	}
	if !st.Degraded || st.DroppedBatches != 1 || st.DegradedSinceUnixNano == 0 {
		t.Fatalf("degraded stats not populated: %+v", st)
	}
	// Later batches are applied but dropped from the log, not re-attempted.
	f.commit(Batch{Shard: 0, Epoch: 2, HasIns: true})
	if got := m.Stats().DroppedBatches; got != 2 {
		t.Fatalf("dropped %d batches, want 2", got)
	}
	if err := m.Close(); err == nil {
		t.Fatal("Close did not report the outstanding durability error")
	}
}

func TestManagerCloseIdempotentAndConcurrent(t *testing.T) {
	dir := t.TempDir()
	f := newFakeEngine(8, 2)
	m, err := Open(dir, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches() {
		f.commit(b)
	}
	// Concurrent Close calls, a racing Snapshot, and racing commits: none
	// may panic, and every Close returns the same (nil) result.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.Close()
		}(i)
	}
	var snapErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		snapErr = m.Snapshot() // either runs cleanly or reports "after close"
	}()
	go func() {
		defer wg.Done()
		f.commit(Batch{Shard: 1, Epoch: 3, HasIns: true})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("Close call %d returned %v, call 0 returned %v", i, err, errs[0])
		}
	}
	if errs[0] != nil {
		t.Fatalf("Close failed: %v", errs[0])
	}
	if err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "close") {
		t.Fatalf("Snapshot after Close: %v, want after-close error", err)
	}
	// Nothing committed before the race may be lost: reopen and check that
	// every shard recovered at least its last committed epoch. When the
	// racing Snapshot won, it covers those batches and the log tail is
	// legitimately empty, so the replay count is only checked without it.
	f2 := newFakeEngine(8, 2)
	m2, err := Open(dir, f2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 2)
	for _, b := range testBatches() {
		want[b.Shard] = max(want[b.Shard], b.Epoch)
	}
	for si, w := range want {
		if got := f2.ShardEpoch(si); got < w {
			t.Fatalf("shard %d recovered at epoch %d after concurrent close, want >= %d (snapshot: %v)", si, got, w, snapErr)
		}
	}
	if got := m2.RecoveredBatches(); snapErr != nil && got < uint64(len(testBatches())) {
		t.Fatalf("recovered %d batches after concurrent close without a snapshot, want >= %d", got, len(testBatches()))
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}
