package replica_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/replica"
	"kcore/internal/shard"
	"kcore/internal/wal"
)

var testParams = lds.Params{Delta: 0.2, Lambda: 9}

func newEngine(n, p int) *shard.Engine {
	e := shard.New(n, p, testParams)
	e.SetRetainedEpochs(4)
	return e
}

// randomBatches returns deterministic insert/delete rounds over n vertices.
func randomBatches(n, rounds, perRound int, seed int64) [][2][]graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2][]graph.Edge, rounds)
	var live []graph.Edge
	for r := range out {
		ins := make([]graph.Edge, 0, perRound)
		for i := 0; i < perRound; i++ {
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			if u != v {
				ins = append(ins, graph.Edge{U: u, V: v})
			}
		}
		var del []graph.Edge
		if len(live) > 0 && r%3 == 2 {
			for i := 0; i < perRound/4 && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				del = append(del, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		live = append(live, ins...)
		out[r] = [2][]graph.Edge{ins, del}
	}
	return out
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// expectParity asserts byte-identical coreness estimates and equal epochs
// between two quiescent engines.
func expectParity(t *testing.T, primary, follower *shard.Engine) {
	t.Helper()
	if pe, fe := primary.Epoch(), follower.Epoch(); pe != fe {
		t.Fatalf("epoch mismatch: primary %d, follower %d", pe, fe)
	}
	n := primary.NumVertices()
	pOut, fOut := make([]float64, n), make([]float64, n)
	pep := primary.ReadAllPinned(pOut)
	fep := follower.ReadAllPinned(fOut)
	if pep != fep {
		t.Fatalf("pinned read epochs differ: primary %d, follower %d", pep, fep)
	}
	for v := range pOut {
		if pOut[v] != fOut[v] {
			t.Fatalf("coreness of vertex %d differs at epoch %d: primary %v, follower %v",
				v, pep, pOut[v], fOut[v])
		}
	}
}

// startFeeder wires a TailSource + Feeder onto an httptest server.
func startFeeder(t *testing.T, eng *shard.Engine, opt replica.FeederOptions) (*replica.Feeder, *httptest.Server, *wal.TailSource) {
	t.Helper()
	src := wal.NewTailSource(eng)
	feeder := replica.NewFeeder(src, opt)
	srv := httptest.NewServer(feeder.Handler())
	t.Cleanup(func() { srv.Close(); src.Close() })
	return feeder, srv, src
}

func fastFollowerOpts() replica.FollowerOptions {
	return replica.FollowerOptions{
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		StreamTimeout: 2 * time.Second,
		InitialSync:   5 * time.Second,
	}
}

func TestFollowerParity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 300
			primary := newEngine(n, shards)
			batches := randomBatches(n, 30, 40, 7)

			// Half the history lands before the follower exists: the
			// bootstrap must carry it.
			for _, b := range batches[:15] {
				primary.Apply(b[0], b[1])
			}
			_, srv, _ := startFeeder(t, primary, replica.FeederOptions{Heartbeat: 20 * time.Millisecond})

			follower := newEngine(n, shards)
			fol, err := replica.StartFollower(follower, srv.URL, fastFollowerOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer fol.Close()
			if got, want := fol.Epoch(), primary.Epoch(); got != want {
				t.Fatalf("post-bootstrap epoch %d, want %d", got, want)
			}

			// The other half streams live, with concurrent follower
			// readers asserting monotone epochs throughout (-race).
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var readerErr atomic.Value
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]float64, 8)
					vs := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
					var last uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						ep := follower.ReadManyPinned(vs, out)
						if ep < last {
							readerErr.Store(fmt.Errorf("follower epoch went backwards: %d after %d", ep, last))
							return
						}
						last = ep
					}
				}()
			}
			for _, b := range batches[15:] {
				primary.Apply(b[0], b[1])
			}
			waitFor(t, 10*time.Second, "follower catch-up", func() bool {
				return fol.Epoch() == primary.Epoch()
			})
			close(stop)
			wg.Wait()
			if err, ok := readerErr.Load().(error); ok && err != nil {
				t.Fatal(err)
			}
			expectParity(t, primary, follower)
			if err := follower.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := fol.Stats()
			if !st.Synced || st.Bootstraps != 1 {
				t.Fatalf("unexpected follower stats: %+v", st)
			}
		})
	}
}

// TestFollowerReconnectsAndResumes is the resume acceptance path: a
// follower partitioned for fewer batches than the retained ring reconnects
// without a second snapshot transfer — one bootstrap ever, Resumes
// incremented — and still converges byte-identical.
func TestFollowerReconnectsAndResumes(t *testing.T) {
	const n, shards = 200, 2
	primary := newEngine(n, shards)
	batches := randomBatches(n, 24, 30, 11)
	for _, b := range batches[:8] {
		primary.Apply(b[0], b[1])
	}

	// A plain listener (not httptest) so the same address can be re-bound
	// after the "crash".
	src := wal.NewTailSource(primary)
	defer src.Close()
	feeder := replica.NewFeeder(src, replica.FeederOptions{Heartbeat: 20 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: feeder.Handler()}
	go hs.Serve(ln)

	follower := newEngine(n, shards)
	fol, err := replica.StartFollower(follower, addr, fastFollowerOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	// Partition: kill the primary's replication listener mid-stream.
	hs.Close()
	for _, b := range batches[8:16] {
		primary.Apply(b[0], b[1])
	}
	// Heal: a fresh listener on the same address. The follower's backoff
	// loop finds it and resumes from its applied vector — the default
	// retained ring easily covers the 8 batches it missed.
	waitFor(t, 5*time.Second, "listener rebind", func() bool {
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return false
		}
		ln = ln2
		return true
	})
	hs2 := &http.Server{Handler: feeder.Handler()}
	go hs2.Serve(ln)
	defer hs2.Close()

	for _, b := range batches[16:] {
		primary.Apply(b[0], b[1])
	}
	waitFor(t, 10*time.Second, "catch-up after reconnect", func() bool {
		return fol.Epoch() == primary.Epoch()
	})
	expectParity(t, primary, follower)
	if err := follower.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := fol.Stats()
	if st.Bootstraps != 1 {
		t.Fatalf("partition within retention must not re-bootstrap, got stats %+v", st)
	}
	if st.Resumes < 1 {
		t.Fatalf("expected a resume after the partition, got stats %+v", st)
	}
	if st.Reconnects < 1 {
		t.Fatalf("expected reconnect attempts, got stats %+v", st)
	}
	if fs := feeder.Stats(); fs.Bootstraps != 1 || fs.Resumes < 1 {
		t.Fatalf("feeder should have served exactly one bootstrap and a resume, got %+v", fs)
	}
}

func TestFeederPauseCreatesLagResumeCatchesUp(t *testing.T) {
	const n, shards = 150, 2
	primary := newEngine(n, shards)
	batches := randomBatches(n, 12, 25, 3)
	for _, b := range batches[:4] {
		primary.Apply(b[0], b[1])
	}
	feeder, srv, _ := startFeeder(t, primary, replica.FeederOptions{Heartbeat: 10 * time.Millisecond})

	follower := newEngine(n, shards)
	fol, err := replica.StartFollower(follower, srv.URL, fastFollowerOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	feeder.Pause()
	// Records shipped before the pause landed may still be in flight on
	// the follower side; let them settle before freezing the reference.
	time.Sleep(30 * time.Millisecond)
	frozen := fol.Epoch()
	for _, b := range batches[4:] {
		primary.Apply(b[0], b[1])
	}
	// The feed is paused: the follower must not advance, but must stay
	// connected (heartbeats flow).
	time.Sleep(50 * time.Millisecond)
	if got := fol.Epoch(); got != frozen {
		t.Fatalf("follower advanced to %d while the feed was paused (was %d)", got, frozen)
	}
	if st := fol.Stats(); !st.Connected {
		t.Fatalf("follower disconnected during pause: %+v", st)
	}
	if primary.Epoch() == frozen {
		t.Fatal("primary did not advance; the pause test is vacuous")
	}

	feeder.Resume()
	waitFor(t, 10*time.Second, "catch-up after resume", func() bool {
		return fol.Epoch() == primary.Epoch()
	})
	expectParity(t, primary, follower)
}

func TestOverrunRecoversViaResume(t *testing.T) {
	const n, shards = 120, 1
	primary := newEngine(n, shards)
	primary.Insert([]graph.Edge{{U: 0, V: 1}})
	// Tiny tail buffer: while the feed is paused the primary outruns it
	// and the hub drops the subscription. The retained ring is far deeper
	// than the tail buffer, so the follower recovers with a resume — an
	// overrun now costs re-shipping the missed records, not the snapshot.
	feeder, srv, _ := startFeeder(t, primary,
		replica.FeederOptions{Heartbeat: 10 * time.Millisecond, Buffer: 2})

	follower := newEngine(n, shards)
	fol, err := replica.StartFollower(follower, srv.URL, fastFollowerOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	feeder.Pause()
	for _, b := range randomBatches(n, 8, 10, 5) {
		primary.Apply(b[0], b[1])
	}
	feeder.Resume()
	waitFor(t, 10*time.Second, "catch-up after overrun", func() bool {
		return fol.Epoch() == primary.Epoch()
	})
	expectParity(t, primary, follower)
	if feeder.Stats().Overruns == 0 {
		t.Fatal("expected the tiny tail buffer to overrun")
	}
	st := fol.Stats()
	if st.Bootstraps != 1 || st.Resumes < 1 {
		t.Fatalf("expected the overrun to recover via resume, got %+v", st)
	}
}

// TestKickForcesResume drives the deterministic reconnect path: Kick drops
// every connection; the follower comes back with its applied vector and
// the feeder serves the missed records from the ring — no second snapshot.
func TestKickForcesResume(t *testing.T) {
	const n, shards = 150, 2
	primary := newEngine(n, shards)
	batches := randomBatches(n, 12, 25, 17)
	for _, b := range batches[:4] {
		primary.Apply(b[0], b[1])
	}
	feeder, srv, _ := startFeeder(t, primary, replica.FeederOptions{Heartbeat: 10 * time.Millisecond})

	follower := newEngine(n, shards)
	fol, err := replica.StartFollower(follower, srv.URL, fastFollowerOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	bootstraps0 := feeder.Stats().Bootstraps

	if kicked := feeder.Kick(); kicked != 1 {
		t.Fatalf("kicked %d connections, want 1", kicked)
	}
	// Committed while the follower is between connections; the ring
	// retains them and the resume replays them.
	for _, b := range batches[4:] {
		primary.Apply(b[0], b[1])
	}
	waitFor(t, 10*time.Second, "catch-up after kick", func() bool {
		return fol.Epoch() == primary.Epoch()
	})
	expectParity(t, primary, follower)
	st := fol.Stats()
	if st.Resumes < 1 || st.Bootstraps != 1 {
		t.Fatalf("expected the kicked follower to resume, got %+v", st)
	}
	fs := feeder.Stats()
	if fs.Bootstraps != bootstraps0 || fs.Resumes < 1 || fs.Kicks != 1 {
		t.Fatalf("feeder should have resumed without another bootstrap, got %+v", fs)
	}
}

// TestResumeStaleFallsBack pins the fallback: a follower whose cursor the
// ring has evicted past is told frameResumeStale and silently performs a
// full re-bootstrap — no error surfaces, state still converges.
func TestResumeStaleFallsBack(t *testing.T) {
	const n, shards = 120, 1
	primary := newEngine(n, shards)
	primary.Insert([]graph.Edge{{U: 0, V: 1}})
	// A ring of 2 against a 10-batch burst guarantees eviction past any
	// disconnected cursor.
	feeder, srv, _ := startFeeder(t, primary,
		replica.FeederOptions{Heartbeat: 10 * time.Millisecond, RetainBatches: 2})

	opts := fastFollowerOpts()
	// Keep the follower away long enough for the whole burst to commit
	// before its resume attempt.
	opts.BackoffMin = 300 * time.Millisecond
	follower := newEngine(n, shards)
	fol, err := replica.StartFollower(follower, srv.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	feeder.Kick()
	for _, b := range randomBatches(n, 10, 10, 9) {
		primary.Apply(b[0], b[1])
	}
	waitFor(t, 10*time.Second, "catch-up after stale resume", func() bool {
		return fol.Epoch() == primary.Epoch()
	})
	expectParity(t, primary, follower)
	st := fol.Stats()
	if st.Bootstraps != 2 {
		t.Fatalf("stale cursor must fall back to a re-bootstrap, got %+v", st)
	}
	if st.Resumes != 0 {
		t.Fatalf("no resume should have succeeded, got %+v", st)
	}
	if st.Err != "" {
		t.Fatalf("a stale cursor is a fallback, not an error: %+v", st)
	}
	if fs := feeder.Stats(); fs.ResumeRejects < 1 {
		t.Fatalf("feeder should have rejected the stale cursor, got %+v", fs)
	}
}

// TestPrimaryRestartRejectsForeignCursor pins the stream-id identity
// check: a cursor whose epochs fall inside a restarted primary's retention
// window must still not resume — the epochs name the previous
// incarnation's history (a degraded or page-cache-only WAL can ship
// batches recovery never sees, so a recovered primary may have
// re-committed different batches under the same epoch numbers). The
// follower must be answered stale and re-bootstrap onto the survivor
// history.
func TestPrimaryRestartRejectsForeignCursor(t *testing.T) {
	batches := randomBatches(restartN, 12, 15, 13)
	// The recovered primary replayed a shorter history (the tail never
	// made the disk), sized its ring there, then committed more batches
	// past the follower's cursor: the cursor's epochs now sit inside the
	// new ring's window [6-batch epoch, 12-batch epoch], so only the
	// stream id tells the two histories apart.
	fol, follower, restarted, feederB := restartPrimary(t, batches[:8], batches[:6], batches[6:])
	expectParity(t, restarted, follower)
	st := fol.Stats()
	if st.Resumes != 0 {
		t.Fatalf("a cursor from the previous incarnation must not resume, got %+v", st)
	}
	if st.Bootstraps != 2 {
		t.Fatalf("expected a full re-bootstrap after the primary restart, got %+v", st)
	}
	if fs := feederB.Stats(); fs.ResumeRejects < 1 {
		t.Fatalf("restarted feeder should have rejected the foreign cursor, got %+v", fs)
	}
}

// TestPrimaryRestartShorterHistoryResetsLag pins the announced primary
// epoch across a re-bootstrap onto a shorter history: the restarted
// primary recovered 3 of the 8 batches the follower had applied and
// commits nothing more, so once the follower re-bootstraps it is in sync
// and must report no lag — the previous incarnation's epochs are gone.
func TestPrimaryRestartShorterHistoryResetsLag(t *testing.T) {
	batches := randomBatches(restartN, 8, 15, 13)
	fol, follower, restarted, _ := restartPrimary(t, batches, batches[:3], nil)
	expectParity(t, restarted, follower)
	st := fol.Stats()
	if st.LagEpochs != 0 || st.PrimaryEpoch != restarted.Epoch() {
		t.Fatalf("in sync at epoch %d after the re-bootstrap, got primary epoch %d and lag %d (%+v)",
			restarted.Epoch(), st.PrimaryEpoch, st.LagEpochs, st)
	}
}

const restartN = 120

// restartPrimary streams before to a follower, then "crashes" the primary:
// the listener dies and its in-memory state (the ring, the stream id) is
// discarded, while the follower keeps its cursor. A restarted primary on
// the same address replays recovered, opens its feeder, commits after,
// and the follower re-bootstraps onto it. One shard.
func restartPrimary(t *testing.T, before, recovered, after [][2][]graph.Edge) (*replica.Follower, *shard.Engine, *shard.Engine, *replica.Feeder) {
	t.Helper()
	primary := newEngine(restartN, 1)
	for _, b := range before {
		primary.Apply(b[0], b[1])
	}
	src := wal.NewTailSource(primary)
	feederA := replica.NewFeeder(src, replica.FeederOptions{Heartbeat: 10 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: feederA.Handler()}
	go hs.Serve(ln)

	follower := newEngine(restartN, 1)
	fol, err := replica.StartFollower(follower, addr, fastFollowerOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)

	hs.Close()
	src.Close()

	restarted := newEngine(restartN, 1)
	for _, b := range recovered {
		restarted.Apply(b[0], b[1])
	}
	src2 := wal.NewTailSource(restarted)
	t.Cleanup(src2.Close)
	feederB := replica.NewFeeder(src2, replica.FeederOptions{Heartbeat: 10 * time.Millisecond})
	for _, b := range after {
		restarted.Apply(b[0], b[1])
	}
	waitFor(t, 5*time.Second, "listener rebind", func() bool {
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return false
		}
		ln = ln2
		return true
	})
	hs2 := &http.Server{Handler: feederB.Handler()}
	go hs2.Serve(ln)
	t.Cleanup(func() { hs2.Close() })

	waitFor(t, 10*time.Second, "re-bootstrap onto the restarted primary", func() bool {
		st := fol.Stats()
		return st.Synced && st.Epoch == restarted.Epoch()
	})
	return fol, follower, restarted, feederB
}

func TestStartFollowerRejectsShapeMismatch(t *testing.T) {
	primary := newEngine(100, 2)
	_, srv, _ := startFeeder(t, primary, replica.FeederOptions{})
	opts := fastFollowerOpts()
	opts.InitialSync = 500 * time.Millisecond
	if _, err := replica.StartFollower(newEngine(100, 4), srv.URL, opts); err == nil {
		t.Fatal("follower with a different shard count must not sync")
	}
	if _, err := replica.StartFollower(newEngine(50, 2), srv.URL, opts); err == nil {
		t.Fatal("follower with a different vertex count must not sync")
	}
}

func TestStartFollowerNoPrimary(t *testing.T) {
	opts := fastFollowerOpts()
	opts.InitialSync = 200 * time.Millisecond
	if _, err := replica.StartFollower(newEngine(10, 1), "127.0.0.1:1", opts); err == nil {
		t.Fatal("expected an initial-sync failure with no primary")
	}
}

// holdApply parks eng inside an outside Quiesce, so a follower driving it
// blocks at its next record apply while frames pile up on its socket. The
// returned func releases the hold and waits for it to end.
func holdApply(eng *shard.Engine) (release func()) {
	entered := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.Quiesce(func() { close(entered); <-done })
	}()
	<-entered
	return func() { close(done); wg.Wait() }
}

// heldApplyOpts keeps the silent-stream watchdog from tearing down a
// connection whose reader is parked at a held apply.
func heldApplyOpts() replica.FollowerOptions {
	opts := fastFollowerOpts()
	opts.StreamTimeout = 30 * time.Second
	return opts
}

// TestCatchupAfterHeldQuiesce pins catch-up from a backlog: while the
// follower's apply is held inside an engine quiesce, the primary commits
// a burst; once released, the follower applies every buffered record
// exactly once and reaches parity.
func TestCatchupAfterHeldQuiesce(t *testing.T) {
	const n = 200
	const burst = 30
	primary := newEngine(n, 1)
	primary.Insert(randomBatches(n, 1, 400, 1)[0][0])
	feeder, srv, _ := startFeeder(t, primary, replica.FeederOptions{Heartbeat: 250 * time.Millisecond, Buffer: 256})

	follower := newEngine(n, 1)
	fol, err := replica.StartFollower(follower, srv.URL, heldApplyOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	waitFor(t, 5*time.Second, "follower synced", func() bool {
		return follower.Epoch() == primary.Epoch()
	})
	base := fol.Stats()
	shipped0 := feeder.Stats().RecordsShipped

	release := holdApply(follower)
	for _, r := range randomBatches(n, burst, 40, 2) {
		primary.Insert(r[0])
	}
	waitFor(t, 5*time.Second, "burst shipped", func() bool {
		return feeder.Stats().RecordsShipped >= shipped0+burst
	})
	time.Sleep(50 * time.Millisecond)
	release()

	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		return follower.Epoch() == primary.Epoch()
	})
	expectParity(t, primary, follower)
	if applied := fol.Stats().RecordsApplied - base.RecordsApplied; applied != burst {
		t.Fatalf("follower applied %d records, want %d", applied, burst)
	}
}

// TestKickDuringHeldApplyResumesOnce pins the resume cursor against a
// backlog: the feeder drops the connection while the follower is parked
// at an apply with the burst already on its socket. The follower applies
// what it had buffered, then resumes from exactly the records it applied,
// so nothing is applied twice and no snapshot is transferred.
func TestKickDuringHeldApplyResumesOnce(t *testing.T) {
	const n, shards, burst = 200, 2, 10
	primary := newEngine(n, shards)
	primary.Insert(randomBatches(n, 1, 400, 1)[0][0])
	feeder, srv, _ := startFeeder(t, primary, replica.FeederOptions{Heartbeat: 250 * time.Millisecond, Buffer: 256})

	follower := newEngine(n, shards)
	fol, err := replica.StartFollower(follower, srv.URL, heldApplyOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	waitFor(t, 5*time.Second, "follower synced", func() bool {
		return follower.Epoch() == primary.Epoch()
	})
	base := fol.Stats()
	ep0 := primary.Epoch()
	shipped0 := feeder.Stats().RecordsShipped

	release := holdApply(follower)
	for _, r := range randomBatches(n, burst, 40, 3) {
		primary.Insert(r[0])
	}
	// Every shard commit is one record and one epoch.
	committed := primary.Epoch() - ep0
	waitFor(t, 5*time.Second, "burst shipped", func() bool {
		return feeder.Stats().RecordsShipped >= shipped0+committed
	})
	if kicked := feeder.Kick(); kicked != 1 {
		t.Fatalf("kicked %d connections, want 1", kicked)
	}
	release()

	waitFor(t, 10*time.Second, "catch-up after kick", func() bool {
		st := fol.Stats()
		return st.Synced && st.Resumes > base.Resumes && follower.Epoch() == primary.Epoch()
	})
	expectParity(t, primary, follower)
	if err := follower.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := fol.Stats()
	if st.Resumes != base.Resumes+1 || st.Bootstraps != base.Bootstraps {
		t.Fatalf("expected exactly one resume and no bootstrap, got %+v (before: %+v)", st, base)
	}
	if applied := st.RecordsApplied - base.RecordsApplied; applied != committed {
		t.Fatalf("follower applied %d records, want the %d committed", applied, committed)
	}
}

// logTap is an engine whose batch log the test can call too, to ship a
// record the engine never committed.
type logTap struct {
	*shard.Engine
	log func(wal.Batch)
}

func (e *logTap) SetBatchLog(fn func(wal.Batch)) {
	e.log = fn
	e.Engine.SetBatchLog(fn)
}

// TestFollowerRebootstrapsOnMissedEpoch: every record changed its shard's
// graph, so applying it must land the follower's shard on the record's
// epoch. A forged record that skips an epoch does not: the follower
// reports it in Err, drops its cursor and, after its backoff, bootstraps
// afresh onto the primary's state, still counting the error afterwards.
func TestFollowerRebootstrapsOnMissedEpoch(t *testing.T) {
	const n = 120
	primary := newEngine(n, 1)
	primary.Insert([]graph.Edge{{U: 0, V: 1}})
	tap := &logTap{Engine: primary}
	src := wal.NewTailSource(tap)
	srv := httptest.NewServer(replica.NewFeeder(src, replica.FeederOptions{Heartbeat: 10 * time.Millisecond}).Handler())
	t.Cleanup(func() { srv.Close(); src.Close() })

	opts := fastFollowerOpts()
	opts.BackoffMin = time.Second // keeps the error visible before the re-bootstrap
	follower := newEngine(n, 1)
	fol, err := replica.StartFollower(follower, srv.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	forged := wal.Batch{Shard: 0, Epoch: primary.ShardEpoch(0) + 2, Ins: []graph.Edge{{U: 5, V: 6}}}
	primary.Quiesce(func() { tap.log(forged) })
	waitFor(t, 5*time.Second, "the missed epoch in Err", func() bool {
		return strings.Contains(fol.Stats().Err, fmt.Sprintf("epoch %d after applying its record for epoch %d", forged.Epoch-1, forged.Epoch))
	})
	primary.Insert([]graph.Edge{{U: 1, V: 2}})
	waitFor(t, 10*time.Second, "the re-bootstrap", func() bool {
		st := fol.Stats()
		return st.Bootstraps == 2 && st.Synced && st.Epoch == primary.Epoch()
	})
	expectParity(t, primary, follower)
	if follower.LocalGraph(0).HasEdge(5, 6) {
		t.Fatal("the forged edge survived the re-bootstrap")
	}
	// The re-sync cleared Err; the error count keeps the divergence visible.
	if st := fol.Stats(); st.Errors < 1 || st.Err != "" {
		t.Fatalf("after the re-sync: errors %d, err %q; want at least 1 and none current", st.Errors, st.Err)
	}
}

// TestOldStreamVersionRefused: version 2 streams numbered epochs for
// sub-batches that changed nothing, so neither side accepts a version-2
// peer. A follower refuses a version-2 stream header, and a feeder answers
// a version-2 resume request 400.
func TestOldStreamVersionRefused(t *testing.T) {
	const n, shards = 50, 1
	header := func() []byte {
		hdr := make([]byte, 24)
		binary.LittleEndian.PutUint32(hdr[0:], 0x6b72706c) // "krpl"
		binary.LittleEndian.PutUint32(hdr[4:], 2)
		binary.LittleEndian.PutUint32(hdr[8:], n)
		binary.LittleEndian.PutUint32(hdr[12:], shards)
		return hdr
	}
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(header()) }))
	defer old.Close()
	opts := fastFollowerOpts()
	opts.InitialSync = 300 * time.Millisecond
	if _, err := replica.StartFollower(newEngine(n, shards), old.URL, opts); err == nil || !strings.Contains(err.Error(), "unsupported stream version 2") {
		t.Fatalf("follower against a version-2 primary: %v", err)
	}

	_, srv, _ := startFeeder(t, newEngine(n, shards), replica.FeederOptions{})
	resume := append(header(), make([]byte, 8*shards)...)
	resp, err := http.Post(srv.URL+replica.StreamPath, "application/octet-stream", bytes.NewReader(resume))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version-2 resume request answered %s, want 400", resp.Status)
	}
}
