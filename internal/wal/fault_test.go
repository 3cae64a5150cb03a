package wal

// Fault-injection tests: every WAL error path driven deterministically
// through faultfs — no sleeps, no disk filling, no process kills. The
// pattern throughout: commit a known batch stream through a manager with
// injected faults, then reopen the directory with a fresh engine and
// assert the recovered prefix is exactly what the durability contract
// promises for that fault × fsync policy.

import (
	"errors"
	"io/fs"
	"strings"
	"syscall"
	"testing"
	"time"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
)

// commitSeq commits count single-shard batches with distinct edges; batch
// i carries epoch i+1 and edge {i, i+1}.
func commitSeq(f *fakeEngine, count int) {
	for i := 0; i < count; i++ {
		f.commit(Batch{
			Shard:  0,
			Epoch:  uint64(i + 1),
			Ins:    []graph.Edge{{U: uint32(i), V: uint32(i + 1)}},
			HasIns: true,
		})
	}
}

// reopenEpoch reopens dir with a fresh engine (no faults) and returns the
// recovered shard-0 epoch — the length of the recovered batch prefix,
// given commitSeq's epoch numbering.
func reopenEpoch(t *testing.T, dir string, n, shards int) uint64 {
	t.Helper()
	f := newFakeEngine(n, shards)
	m, err := Open(dir, f, Options{ReattachEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return f.epochs[0]
}

// noRetry disables retries, the background loop and backoff so each fault
// fires exactly once and the test controls every transition.
func noRetry(inj *faultfs.Injector) Options {
	return Options{FS: inj, AppendRetries: -1, ReattachEvery: -1}
}

func TestFaultFsyncFailureSyncAlways(t *testing.T) {
	// Under SyncAlways the Kth failed fsync degrades the manager at batch
	// K; the failing record's bytes are written (just not synced), so a
	// clean-process reopen recovers K+1 batches and everything after is
	// dropped.
	const healthy, total = 3, 8
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	opt := noRetry(inj)
	opt.Sync = SyncAlways
	m, err := Open(dir, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailSyncs(healthy, -1) // permanent failure from the 4th fsync on
	commitSeq(f, total)

	if !m.Degraded() {
		t.Fatal("permanent fsync failure did not degrade the manager")
	}
	st := m.Stats()
	// The batch whose fsync failed is dropped too: it is written but not
	// durable under the always policy's contract.
	if st.DroppedBatches != total-healthy {
		t.Fatalf("dropped %d batches, want %d", st.DroppedBatches, total-healthy)
	}
	if !errors.Is(m.Err(), faultfs.ErrInjected) {
		t.Fatalf("Err() = %v, want the injected fault", m.Err())
	}
	// The engine kept applying everything in memory.
	if f.epochs[0] != total {
		t.Fatalf("in-memory epoch %d, want %d", f.epochs[0], total)
	}
	m.Close()
	if got := reopenEpoch(t, dir, 16, 1); got != healthy+1 {
		t.Fatalf("recovered epoch %d, want %d (written-but-unsynced record survives a clean reopen)", got, healthy+1)
	}
}

func TestFaultFsyncFailureSyncInterval(t *testing.T) {
	// SyncEvery of 1ns makes the interval policy sync on every append, so
	// the schedule is as deterministic as SyncAlways.
	const healthy, total = 2, 6
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	opt := noRetry(inj)
	opt.Sync = SyncInterval
	opt.SyncEvery = time.Nanosecond
	m, err := Open(dir, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailSyncs(healthy, -1)
	commitSeq(f, total)
	if !m.Degraded() {
		t.Fatal("interval-policy fsync failure did not degrade the manager")
	}
	m.Close()
	if got := reopenEpoch(t, dir, 16, 1); got != healthy+1 {
		t.Fatalf("recovered epoch %d, want %d", got, healthy+1)
	}
}

func TestFaultFsyncFailureSyncNone(t *testing.T) {
	// Under SyncNone the append path never fsyncs: a broken fsync cannot
	// degrade the manager, every record is written, and only Close (which
	// does sync) reports the fault. That is the documented trade: none
	// means "page cache durability".
	const total = 6
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	m, err := Open(dir, f, noRetry(inj))
	if err != nil {
		t.Fatal(err)
	}
	inj.FailSyncs(0, -1)
	commitSeq(f, total)
	if m.Degraded() {
		t.Fatal("SyncNone manager degraded on a fsync-only fault")
	}
	if st := m.Stats(); st.LoggedBatches != total {
		t.Fatalf("logged %d batches, want %d", st.LoggedBatches, total)
	}
	if err := m.Close(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Close() = %v, want the injected fsync fault", err)
	}
	if got := reopenEpoch(t, dir, 16, 1); got != total {
		t.Fatalf("recovered epoch %d, want %d", got, total)
	}
}

func TestFaultENOSPCDegradeAndReattach(t *testing.T) {
	// A byte budget models the disk filling mid-segment: appends degrade
	// with ENOSPC after the budget, the engine keeps applying, and once
	// the fault lifts an explicit Reattach restores durability with the
	// dropped batches folded into the re-attach snapshot.
	const total, more = 10, 4
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	opt := Options{FS: inj, ReattachEvery: -1} // default retries: exercises truncate-repair
	m, err := Open(dir, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	inj.LimitBytes(200) // header is 16 bytes, each record ~29: a few fit
	commitSeq(f, total)
	if !m.Degraded() {
		t.Fatal("ENOSPC did not degrade the manager")
	}
	if !errors.Is(m.Err(), syscall.ENOSPC) {
		t.Fatalf("Err() = %v, want ENOSPC", m.Err())
	}
	st := m.Stats()
	if st.AppendRetries == 0 {
		t.Fatal("exhausting the byte budget never exercised a retry")
	}
	if st.DroppedBatches == 0 || st.DroppedBatches >= total {
		t.Fatalf("dropped %d of %d batches, want a proper mid-stream cut", st.DroppedBatches, total)
	}

	// Operator fixes the disk: the next Reattach succeeds and the full
	// in-memory state (including every dropped batch) becomes durable.
	inj.LimitBytes(-1)
	if err := m.Reattach(); err != nil {
		t.Fatalf("Reattach after lifting ENOSPC: %v", err)
	}
	if m.Degraded() || m.Err() != nil {
		t.Fatalf("still degraded after re-attach: degraded=%v err=%v", m.Degraded(), m.Err())
	}
	if got := m.Stats().Reattaches; got != 1 {
		t.Fatalf("reattaches = %d, want 1", got)
	}
	// Re-attach is idempotent when healthy.
	if err := m.Reattach(); err != nil {
		t.Fatalf("no-op Reattach: %v", err)
	}
	commitSeq2 := func(from, count int) {
		for i := from; i < from+count; i++ {
			f.commit(Batch{Shard: 0, Epoch: uint64(i + 1), Ins: []graph.Edge{{U: uint32(i), V: uint32(i + 1)}}, HasIns: true})
		}
	}
	commitSeq2(total, more)
	if err := m.Close(); err != nil {
		t.Fatalf("Close after successful re-attach: %v", err)
	}
	// Nothing was lost: snapshot carries the degraded-era batches, the
	// fresh segment carries the post-re-attach ones.
	if got := reopenEpoch(t, dir, 16, 1); got != total+more {
		t.Fatalf("recovered epoch %d, want %d", got, total+more)
	}
}

func TestFaultShortWriteRepairedByRetry(t *testing.T) {
	// A transient torn write: the first attempt persists a partial frame,
	// the retry truncates back to the record boundary and rewrites it, so
	// the log stays clean and nothing degrades.
	const total = 5
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	m, err := Open(dir, f, Options{FS: inj, ReattachEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	commitSeq(f, 2)
	inj.ShortWrite(5) // next record tears 5 bytes into its frame
	f.commit(Batch{Shard: 0, Epoch: 3, Ins: []graph.Edge{{U: 2, V: 3}}, HasIns: true})
	if m.Degraded() {
		t.Fatal("transient short write degraded the manager despite retries")
	}
	st := m.Stats()
	if st.AppendRetries == 0 {
		t.Fatal("short write did not register a retry")
	}
	for i := 3; i < total; i++ {
		f.commit(Batch{Shard: 0, Epoch: uint64(i + 1), Ins: []graph.Edge{{U: uint32(i), V: uint32(i + 1)}}, HasIns: true})
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenEpoch(t, dir, 16, 1); got != total {
		t.Fatalf("recovered epoch %d, want %d (repaired record must replay)", got, total)
	}
}

func TestFaultShortWriteTornFrameRecoversPrefix(t *testing.T) {
	// A torn write with no retry budget leaves a partial frame on disk:
	// recovery must truncate at the record boundary and replay exactly
	// the intact prefix.
	const healthy = 3
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	m, err := Open(dir, f, noRetry(inj))
	if err != nil {
		t.Fatal(err)
	}
	commitSeq(f, healthy)
	inj.ShortWrite(7) // tear inside the length/CRC frame of the next record
	f.commit(Batch{Shard: 0, Epoch: healthy + 1, Ins: []graph.Edge{{U: 9, V: 10}}, HasIns: true})
	if !m.Degraded() {
		t.Fatal("unrepaired short write did not degrade the manager")
	}
	m.Close()
	if got := reopenEpoch(t, dir, 16, 1); got != healthy {
		t.Fatalf("recovered epoch %d, want %d (torn frame truncated)", got, healthy)
	}
	// The truncation is persistent: a second reopen sees the same prefix.
	if got := reopenEpoch(t, dir, 16, 1); got != healthy {
		t.Fatalf("second reopen recovered epoch %d, want %d", got, healthy)
	}
}

func TestFaultPermanentWriteFailure(t *testing.T) {
	// Writes that fail outright (EIO-style) exhaust the retries and
	// degrade; the clean prefix replays on reopen.
	const healthy, total = 4, 9
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	m, err := Open(dir, f, Options{FS: inj, ReattachEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The segment header was written before the fault was armed, so the
	// schedule counts records only.
	inj.FailWrites(healthy, -1)
	commitSeq(f, total)
	if !m.Degraded() {
		t.Fatal("permanent write failure did not degrade the manager")
	}
	if f.epochs[0] != total {
		t.Fatalf("in-memory epoch %d, want %d (applies must continue)", f.epochs[0], total)
	}
	m.Close()
	if got := reopenEpoch(t, dir, 16, 1); got != healthy {
		t.Fatalf("recovered epoch %d, want %d", got, healthy)
	}
}

func TestFaultCorruptWriteCaughtByCRC(t *testing.T) {
	// Silent bit rot in a record write is invisible at append time; the
	// CRC catches it at recovery and drops the record and everything
	// after it.
	const healthy, total = 2, 5
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	m, err := Open(dir, f, noRetry(inj))
	if err != nil {
		t.Fatal(err)
	}
	commitSeq(f, healthy)
	inj.CorruptNextWrite()
	for i := healthy; i < total; i++ {
		f.commit(Batch{Shard: 0, Epoch: uint64(i + 1), Ins: []graph.Edge{{U: uint32(i), V: uint32(i + 1)}}, HasIns: true})
	}
	if m.Degraded() {
		t.Fatal("silent corruption must not be detectable at append time")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenEpoch(t, dir, 16, 1); got != healthy {
		t.Fatalf("recovered epoch %d, want %d (corrupt record and suffix dropped)", got, healthy)
	}
}

func TestFaultSnapshotRenameFallsBack(t *testing.T) {
	// A snapshot whose final rename fails is never published: the older
	// snapshot plus the *unpurged* log tail must still recover everything.
	const first, second = 4, 8
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	m, err := Open(dir, f, Options{FS: inj, ReattachEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	commitSeq(f, first)
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := first; i < second; i++ {
		f.commit(Batch{Shard: 0, Epoch: uint64(i + 1), Ins: []graph.Edge{{U: uint32(i), V: uint32(i + 1)}}, HasIns: true})
	}
	inj.FailRenames(0, 1)
	if err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "publishing snapshot") {
		t.Fatalf("Snapshot with failing rename: %v, want publish error", err)
	}
	// The failed snapshot must not have purged the segments it would have
	// covered, or the records between the two snapshots are gone.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenEpoch(t, dir, 16, 1); got != second {
		t.Fatalf("recovered epoch %d, want %d (older snapshot + full tail)", got, second)
	}
	// Only the first snapshot was published.
	snaps, err := listSnapshots(faultfs.OS(), dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots on disk %v (err %v), want exactly the first", snaps, err)
	}
}

func TestFaultReattachFailureStaysDegradedThenRecovers(t *testing.T) {
	// A re-attach whose own snapshot write fails must change nothing:
	// still degraded, error reported, safe to retry until it works.
	const total = 6
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	opt := noRetry(inj)
	opt.Sync = SyncAlways
	m, err := Open(dir, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailSyncs(0, -1) // degrade on the first batch
	commitSeq(f, total)
	if !m.Degraded() {
		t.Fatal("manager did not degrade")
	}
	// Fault still present: the re-attach snapshot's fsync fails too.
	if err := m.Reattach(); err == nil {
		t.Fatal("Reattach succeeded while the fsync fault is still armed")
	}
	if !m.Degraded() {
		t.Fatal("failed Reattach cleared the degraded flag")
	}
	if m.Err() == nil {
		t.Fatal("failed Reattach left no error")
	}
	inj.Clear()
	if err := m.Reattach(); err != nil {
		t.Fatalf("Reattach after clearing the fault: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}
	if got := reopenEpoch(t, dir, 16, 1); got != total {
		t.Fatalf("recovered epoch %d, want %d", got, total)
	}
}

func TestFaultBackgroundReattachLoop(t *testing.T) {
	// The background loop re-attaches on its own once the fault lifts. The
	// loop period is the only timing in play, and the test just polls a
	// bounded deadline — pass/fail does not depend on the exact schedule.
	const total = 4
	dir := t.TempDir()
	inj := faultfs.New(nil)
	f := newFakeEngine(16, 1)
	opt := Options{FS: inj, AppendRetries: -1, ReattachEvery: time.Millisecond, Sync: SyncAlways}
	m, err := Open(dir, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailSyncs(0, -1)
	commitSeq(f, total)
	if !m.Degraded() {
		t.Fatal("manager did not degrade")
	}
	inj.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for m.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("background loop never re-attached after the fault lifted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := m.Stats().Reattaches; got < 1 {
		t.Fatalf("reattaches = %d, want >= 1", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenEpoch(t, dir, 16, 1); got != total {
		t.Fatalf("recovered epoch %d, want %d", got, total)
	}
}

func TestFaultOpenFailureSurfacesAtOpen(t *testing.T) {
	// A directory that cannot even create its first segment fails Open
	// loudly instead of producing a half-attached manager.
	dir := t.TempDir()
	inj := faultfs.New(nil)
	inj.FailOpens(0, -1)
	if _, err := Open(dir, newFakeEngine(8, 1), Options{FS: inj}); err == nil {
		t.Fatal("Open with failing segment creation did not error")
	}
	// Nothing half-created: a healthy reopen starts clean.
	inj.Clear()
	m, err := Open(dir, newFakeEngine(8, 1), Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := listSegments(faultfs.OS(), dir); err != nil {
		t.Fatal(err)
	}
}

// orderFS wraps a filesystem so that every segment write and fsync asserts
// the tail subscriber has not yet received the record being written. The
// test drains the subscriber after every commit, so a non-empty channel
// during an append means the record was published before the disk saw it.
type orderFS struct {
	faultfs.FS
	t             *testing.T
	tr            *TailReader // nil until the subscription exists
	writes, syncs int
}

func (o *orderFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := o.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return f, err
	}
	return &orderFile{File: f, o: o}, nil
}

func (o *orderFS) check(op string) {
	if o.tr == nil {
		return
	}
	if len(o.tr.C()) > 0 {
		o.t.Errorf("segment %s while the tail already holds the record", op)
	}
}

type orderFile struct {
	faultfs.File
	o *orderFS
}

func (f *orderFile) Write(p []byte) (int, error) {
	f.o.check("write")
	f.o.writes++
	return f.File.Write(p)
}

func (f *orderFile) Sync() error {
	f.o.check("fsync")
	f.o.syncs++
	return f.File.Sync()
}

func TestFaultTailPublishesAfterAppend(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sync       SyncPolicy
		failWrites bool
	}{
		{"none", SyncNone, false},
		{"always", SyncAlways, false},
		{"writes-fail", SyncNone, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const total = 4
			inj := faultfs.New(nil)
			ofs := &orderFS{FS: inj, t: t}
			f := newFakeEngine(16, 1)
			m, err := Open(t.TempDir(), f, Options{FS: ofs, Sync: tc.sync, ReattachEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			_, tr, err := m.Tail().Bootstrap(total)
			if err != nil {
				t.Fatal(err)
			}
			ofs.tr = tr
			if tc.failWrites {
				inj.FailWrites(0, -1) // every attempt fails: the retry budget runs out
			}
			for ep := uint64(1); ep <= total; ep++ {
				f.commit(Batch{Shard: 0, Epoch: ep, Ins: []graph.Edge{{U: uint32(ep), V: uint32(ep + 1)}}, HasIns: true})
				if b := decodeRec(t, <-tr.C(), 1); b.Epoch != ep {
					t.Fatalf("tail delivered epoch %d, want %d", b.Epoch, ep)
				}
			}
			if ofs.writes == 0 || (tc.sync == SyncAlways && ofs.syncs < total) {
				t.Fatalf("checked %d writes and %d fsyncs; the ordering assertions never ran", ofs.writes, ofs.syncs)
			}
			st := m.Stats()
			if tc.failWrites {
				if !st.Degraded || st.DroppedBatches != total {
					t.Fatalf("failed appends: degraded=%v dropped=%d, want degraded and %d dropped", st.Degraded, st.DroppedBatches, total)
				}
			} else if st.LoggedBatches != total {
				t.Fatalf("logged %d batches, want %d", st.LoggedBatches, total)
			}
		})
	}
}
