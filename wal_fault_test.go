package kcore

import (
	"strings"
	"sync"
	"testing"
	"time"

	"kcore/internal/faultfs"
)

// insertScript builds insert-only batches so one scriptOp is exactly one
// WAL record (randScript mixes in deletion sub-batches, which log as a
// second record and would break the per-record accounting these tests do).
func insertScript(n, batches, perBatch int, seed int64) []scriptOp {
	full := randScript(n, batches, perBatch, seed)
	for i := range full {
		full[i].del = nil
	}
	return full
}

// faultWAL is the WAL configuration of the deterministic fault tests: the
// injected filesystem, no retries (the first fault is the failure) and no
// background re-attach loop (transitions are driven explicitly).
func faultWAL(inj *faultfs.Injector, sync SyncPolicy, every time.Duration) WALOptions {
	return WALOptions{
		Sync:          sync,
		SyncEvery:     every,
		FS:            inj,
		AppendRetries: -1,
		ReattachEvery: -1,
	}
}

// TestWALDegradedModeAndReattachParity is the end-to-end degraded-mode
// contract, deterministically: a permanent injected fsync failure flips
// DurabilityStats.Degraded while updates and reads keep working and stay
// bit-identical to an unlogged reference engine; lifting the fault and
// re-attaching restores durability, and a post-re-attach restart recovers
// the full state — including the batches applied while degraded.
func TestWALDegradedModeAndReattachParity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "single", 4: "sharded"}[shards], func(t *testing.T) {
			const n = 64
			inj := faultfs.New(nil)
			dir := t.TempDir()
			d, err := New(n, WithShards(shards), WithWAL(dir, faultWAL(inj, SyncAlways, 0)))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(n, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			script := randScript(n, 9, 12, 7)

			applyScript(d, script[:3])
			applyScript(ref, script[:3])
			if st, _ := d.DurabilityStats(); st.Degraded {
				t.Fatal("degraded before any fault")
			}

			inj.FailSyncs(0, -1)
			applyScript(d, script[3:6])
			applyScript(ref, script[3:6])
			st, ok := d.DurabilityStats()
			if !ok || !st.Degraded {
				t.Fatalf("stats after permanent fsync failure: ok=%v %+v", ok, st)
			}
			if st.Err == "" || st.DegradedSinceUnixNano == 0 || st.DroppedBatches == 0 {
				t.Fatalf("degraded stats incomplete: %+v", st)
			}
			// Degraded is a durability statement, not an availability one:
			// the in-memory state keeps tracking the reference exactly.
			requireSameState(t, captureState(d), captureState(ref), "while degraded")

			inj.Clear()
			if err := d.Reattach(); err != nil {
				t.Fatalf("Reattach after lifting the fault: %v", err)
			}
			st, _ = d.DurabilityStats()
			if st.Degraded || st.Err != "" || st.Reattaches != 1 {
				t.Fatalf("stats after re-attach: %+v", st)
			}

			applyScript(d, script[6:])
			applyScript(ref, script[6:])
			want := captureState(ref)
			requireSameState(t, captureState(d), want, "after re-attach")
			if err := d.Close(); err != nil {
				t.Fatalf("Close after re-attach: %v", err)
			}

			// Restart: nothing applied during the outage may be lost — the
			// re-attach snapshot covered the dropped batches.
			d2, err := New(n, WithShards(shards), WithWAL(dir, WALOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			requireSameState(t, captureState(d2), want, "recovered")
		})
	}
}

// TestWALFsyncFaultPerPolicy pins down exactly what a permanent fsync
// failure costs under each sync policy, by recovery parity with an
// unlogged reference engine applying the surviving prefix:
//
//   - SyncAlways: the failing batch is written but unsynced, later ones are
//     dropped — a clean-process reopen recovers healthy+1 batches.
//   - SyncInterval (1ns, so every append syncs): same as SyncAlways.
//   - SyncNone: appends never fsync, so the fault cannot degrade the log;
//     only Close reports it, and every batch is recovered.
func TestWALFsyncFaultPerPolicy(t *testing.T) {
	const n, total, healthy = 48, 7, 3
	cases := []struct {
		name      string
		sync      SyncPolicy
		every     time.Duration
		recovered int  // script prefix a reopen must reproduce
		degrades  bool // whether the fault flips Degraded
	}{
		{"always", SyncAlways, 0, healthy + 1, true},
		{"interval", SyncInterval, time.Nanosecond, healthy + 1, true},
		{"none", SyncNone, 0, total, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultfs.New(nil)
			dir := t.TempDir()
			d, err := New(n, WithWAL(dir, faultWAL(inj, tc.sync, tc.every)))
			if err != nil {
				t.Fatal(err)
			}
			script := insertScript(n, total, 10, int64(101+tc.sync))
			applyScript(d, script[:healthy])
			inj.FailSyncs(0, -1)
			applyScript(d, script[healthy:])

			st, _ := d.DurabilityStats()
			if st.Degraded != tc.degrades {
				t.Fatalf("Degraded=%v, want %v (%+v)", st.Degraded, tc.degrades, st)
			}
			// The fault is still armed at shutdown, so Close must surface
			// it under every policy: the final sync fails for SyncNone, and
			// the degraded policies report the outstanding append error.
			if err := d.Close(); err == nil {
				t.Fatal("Close succeeded with the fsync fault still armed")
			}

			ref, refErr := New(n)
			if refErr != nil {
				t.Fatal(refErr)
			}
			applyScript(ref, script[:tc.recovered])

			d2, err := New(n, WithWAL(dir, WALOptions{}))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d2.Close()
			requireSameState(t, captureState(d2), captureState(ref), "recovered prefix")
		})
	}
}

// TestReattachRequiresWAL mirrors Snapshot's contract for the new method.
func TestReattachRequiresWAL(t *testing.T) {
	d, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Reattach(); err == nil || !strings.Contains(err.Error(), "WithWAL") {
		t.Fatalf("Reattach without WAL: %v", err)
	}
}

// TestCloseIdempotentAndConcurrent exercises the public Close contract:
// idempotent (every call returns the first result), and safe to race with
// Snapshot and in-flight update batches. The logged tail must survive —
// a reopen recovers a consistent prefix of what was applied.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	const n = 48
	dir := t.TempDir()
	d, err := New(n, WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	script := insertScript(n, 12, 8, 23)
	applyScript(d, script[:4])

	var wg sync.WaitGroup
	closeErrs := make([]error, 4)
	for i := range closeErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			closeErrs[i] = d.Close()
		}(i)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := d.Snapshot(); err != nil && !strings.Contains(err.Error(), "close") {
			t.Errorf("racing Snapshot: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		applyScript(d, script[4:]) // updates racing the close must not panic
	}()
	wg.Wait()
	for i, err := range closeErrs {
		if err != closeErrs[0] {
			t.Fatalf("Close call %d returned %v, call 0 returned %v", i, err, closeErrs[0])
		}
	}
	if closeErrs[0] != nil {
		t.Fatalf("Close: %v", closeErrs[0])
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}

	// The decomposition stays usable after Close (unlogged), and the WAL
	// directory reopens to a consistent prefix: at least the 4 batches
	// committed before the race, at most everything applied.
	applyScript(d, script[:1])
	d2, err := New(n, WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatalf("reopen after concurrent close: %v", err)
	}
	defer d2.Close()
	got := captureState(d2)
	if got.epoch < 4 || got.epoch > 12 {
		t.Fatalf("recovered %d batches, want between 4 and 12", got.epoch)
	}
	ref, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(ref, script[:got.epoch])
	requireSameState(t, got, captureState(ref), "prefix after concurrent close")
}
