package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
	"kcore/internal/graph"
	"kcore/internal/lds"
)

// jsonDecode is the goroutine-safe decode helper (no testing.T).
func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func fastReplicationOptions() Option {
	return WithReplicationOptions(kcore.ReplicationOptions{
		Heartbeat:     15 * time.Millisecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		StreamTimeout: 2 * time.Second,
		InitialSync:   5 * time.Second,
	})
}

// newReplicatedPair starts a primary serving a replication stream and a
// replica synced to it, both with their HTTP surfaces up.
func newReplicatedPair(t *testing.T, n, shards int) (primary, rep *Server, pts, rts *httptest.Server) {
	t.Helper()
	var err error
	primary, err = New(n, lds.DefaultParams(), WithShards(shards),
		WithReplicationListen("127.0.0.1:0"), fastReplicationOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	rep, err = New(n, lds.DefaultParams(), WithShards(shards),
		WithReplicationSource(primary.ReplicationAddr()), fastReplicationOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	pts = httptest.NewServer(primary.Handler())
	t.Cleanup(pts.Close)
	rts = httptest.NewServer(rep.Handler())
	t.Cleanup(rts.Close)
	return primary, rep, pts, rts
}

func applyRandomBatches(s *Server, n, rounds, perRound int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		var ins []graph.Edge
		for i := 0; i < perRound; i++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if u != v {
				ins = append(ins, graph.Edge{U: u, V: v})
			}
		}
		s.InsertBatch(ins)
	}
}

func waitReplicaEpoch(t *testing.T, rep *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rep.Decomposition().Epoch() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica stuck at epoch %d, want %d", rep.Decomposition().Epoch(), want)
}

func TestReplicaServesParityAndRejectsWrites(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 120
			primary, rep, pts, rts := newReplicatedPair(t, n, shards)
			applyRandomBatches(primary, n, 10, 25, 7)
			waitReplicaEpoch(t, rep, primary.Decomposition().Epoch())

			// Byte-identical bulk reads at the same epoch.
			var vs []string
			for v := 0; v < n; v++ {
				vs = append(vs, fmt.Sprint(v))
			}
			body := fmt.Sprintf(`{"vertices":[%s]}`, strings.Join(vs, ","))
			pResp := decode[bulkResponse](t, post(t, pts.URL+"/coreness/bulk", body))
			rResp := decode[bulkResponse](t, post(t, rts.URL+"/coreness/bulk", body))
			if pResp.Epoch != rResp.Epoch {
				t.Fatalf("bulk epochs differ: primary %d, replica %d", pResp.Epoch, rResp.Epoch)
			}
			for i := range pResp.Coreness {
				if pResp.Coreness[i] != rResp.Coreness[i] {
					t.Fatalf("coreness of vertex %d differs at epoch %d: %v vs %v",
						i, pResp.Epoch, pResp.Coreness[i], rResp.Coreness[i])
				}
			}

			// Every mutating endpoint answers the stable read_only code.
			for _, req := range []struct{ path, body string }{
				{"/edges/insert", "0 1\n"},
				{"/edges/delete", "0 1\n"},
				{"/edges/batch", `{"insert":[{"u":0,"v":1}]}`},
				{"/snapshot", ""},
			} {
				resp := post(t, rts.URL+req.path, req.body)
				if resp.StatusCode != http.StatusForbidden {
					t.Fatalf("%s on replica: status %d, want 403", req.path, resp.StatusCode)
				}
				if er := decode[errorResponse](t, resp); er.Code != codeReadOnly {
					t.Fatalf("%s on replica: code %q, want %q", req.path, er.Code, codeReadOnly)
				}
			}
			// The primary still accepts writes.
			if resp := post(t, pts.URL+"/edges/insert", "0 1\n"); resp.StatusCode != http.StatusOK {
				t.Fatalf("primary insert status %d", resp.StatusCode)
			}

			// Replication blocks in /stats on both sides.
			ps := decode[statsResponse](t, get(t, pts.URL+"/stats"))
			if ps.Replication == nil || ps.Replication.Role != "primary" || ps.Replication.Feeder == nil ||
				ps.Replication.Feeder.Followers != 1 {
				t.Fatalf("primary replication stats: %+v", ps.Replication)
			}
			rs := decode[statsResponse](t, get(t, rts.URL+"/stats"))
			if rs.Replication == nil || rs.Replication.Role != "replica" || rs.Replication.Follower == nil ||
				!rs.Replication.Follower.Synced {
				t.Fatalf("replica replication stats: %+v", rs.Replication)
			}

			// A synced replica is ready.
			if resp := get(t, rts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
				t.Fatalf("synced replica readyz status %d", resp.StatusCode)
			}
		})
	}
}

func TestEpochFloorWaitsAndSheds(t *testing.T) {
	const n = 100
	primary, rep, _, rts := newReplicatedPair(t, n, 2)
	applyRandomBatches(primary, n, 4, 20, 3)
	waitReplicaEpoch(t, rep, primary.Decomposition().Epoch())

	// A floor four epochs past the primary's: no server can reach it until
	// the primary commits that many more batches.
	const ahead = 4
	floor := primary.Decomposition().Epoch() + ahead

	// Shed: a floor the replica cannot reach within the wait budget
	// answers 412 with the structured epoch_behind body.
	rep.minEpochWait = 50 * time.Millisecond
	resp := get(t, fmt.Sprintf("%s/coreness?v=1&min_epoch=%d", rts.URL, floor))
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("lagging floor read: status %d, want 412", resp.StatusCode)
	}
	shed := decode[epochBehindResponse](t, resp)
	if shed.Code != codeEpochBehind || shed.MinEpoch != floor || shed.Epoch >= floor {
		t.Fatalf("epoch_behind body: %+v (floor %d)", shed, floor)
	}
	// Same contract on the bulk body's min_epoch field.
	resp = post(t, rts.URL+"/coreness/bulk", fmt.Sprintf(`{"vertices":[1],"min_epoch":%d}`, floor))
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("lagging bulk floor read: status %d, want 412", resp.StatusCode)
	}
	// And on /top.
	resp = get(t, fmt.Sprintf("%s/top?k=3&min_epoch=%d", rts.URL, floor))
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("lagging top floor read: status %d, want 412", resp.StatusCode)
	}

	// Block: with wait budget, a floor read issued while behind is held
	// until the primary commits past the floor and the replica applies it,
	// then served at >= floor.
	rep.minEpochWait = 10 * time.Second
	type result struct {
		status int
		epoch  uint64
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/coreness?v=1&min_epoch=%d", rts.URL, floor))
		if err != nil {
			done <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		var cr corenessResponse
		_ = jsonDecode(resp, &cr)
		done <- result{status: resp.StatusCode, epoch: cr.Epoch}
	}()
	time.Sleep(50 * time.Millisecond) // the read is now parked on the floor
	select {
	case res := <-done:
		t.Fatalf("floor read answered (status %d) before the primary reached the floor", res.status)
	default:
	}
	applyRandomBatches(primary, n, ahead, 20, 4) // each batch commits >= 1 epoch
	res := <-done
	if res.status != http.StatusOK {
		t.Fatalf("floor read after resume: status %d", res.status)
	}
	if res.epoch < floor {
		t.Fatalf("floor read served epoch %d < floor %d", res.epoch, floor)
	}
}

// TestBounceClientNeverReadsBackwards drives a client that alternates
// between primary and replica, always passing the last observed epoch as
// min_epoch: served epochs must never decrease across the bounce.
func TestBounceClientNeverReadsBackwards(t *testing.T) {
	const n = 100
	primary, _, pts, rts := newReplicatedPair(t, n, 2)
	applyRandomBatches(primary, n, 1, 20, 5)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bounceErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		urls := []string{pts.URL, rts.URL}
		var lastEpoch uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			url := fmt.Sprintf("%s/coreness?v=1&min_epoch=%d", urls[i%2], lastEpoch)
			resp, err := http.Get(url)
			if err != nil {
				bounceErr.Store(fmt.Sprintf("bounce read: %v", err))
				return
			}
			var cr corenessResponse
			err = jsonDecode(resp, &cr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				bounceErr.Store(fmt.Sprintf("bounce read status %d err %v", resp.StatusCode, err))
				return
			}
			if cr.Epoch < lastEpoch {
				bounceErr.Store(fmt.Sprintf("epoch went backwards across the bounce: %d after %d", cr.Epoch, lastEpoch))
				return
			}
			lastEpoch = cr.Epoch
		}
	}()
	applyRandomBatches(primary, n, 10, 20, 6)
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if msg, ok := bounceErr.Load().(string); ok {
		t.Fatal(msg)
	}
}

func TestReplicaNotReadyUntilSynced(t *testing.T) {
	// A replica pointed at a dead primary with background sync must report
	// itself not ready (syncing) while it has never bootstrapped.
	s, err := New(50, lds.DefaultParams(),
		WithReplicationSource("127.0.0.1:1"),
		WithReplicationOptions(kcore.ReplicationOptions{
			BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
			InitialSync: -1, // don't block New
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsynced replica readyz status %d, want 503", resp.StatusCode)
	}
	if hr := decode[healthResponse](t, resp); hr.Status != "syncing" {
		t.Fatalf("unsynced replica status %q, want syncing", hr.Status)
	}
}

func TestReplicationServerOptionValidation(t *testing.T) {
	if _, err := New(10, lds.DefaultParams(),
		WithReplicationListen("127.0.0.1:0"), WithReplicationSource("127.0.0.1:1")); err == nil {
		t.Fatal("listen+source must be rejected")
	}
	if _, err := New(10, lds.DefaultParams(),
		WithWAL(t.TempDir(), kcore.WALOptions{}), WithReplicationSource("127.0.0.1:1")); err == nil {
		t.Fatal("WAL on a replica must be rejected")
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, c := range []struct {
		name              string
		floor, start, now uint64
		waited, budget    time.Duration
		want              string
	}{
		// The engine can cross the floor between the wait deadline and
		// the header computation: the hint must not underflow the (now
		// negative) gap — just say retry immediately.
		{"floor met", 10, 2, 10, 40 * time.Millisecond, time.Second, "1"},
		{"floor passed", 10, 2, 12, 40 * time.Millisecond, time.Second, "1"},
		// Observed progress extrapolates: 8 epochs in 2s, 8 to go => ~2s.
		{"extrapolated", 20, 4, 12, 2 * time.Second, 5 * time.Second, "2"},
		// A far-ahead floor (the client's min_epoch) saturates at the
		// clamp instead of wrapping the gap × per-epoch product.
		{"far floor", 1 << 40, 100, 110, 2 * time.Second, 2 * time.Second, "60"},
		{"max floor", math.MaxUint64, 100, 110, 2 * time.Second, 2 * time.Second, "60"},
		// No progress falls back to the wait budget, clamped to [1, 60].
		{"stalled", 20, 4, 4, 2 * time.Second, 5 * time.Second, "5"},
		{"stalled long budget", 20, 4, 4, 2 * time.Second, 5 * time.Minute, "60"},
	} {
		if got := retryAfterSeconds(c.floor, c.start, c.now, c.waited, c.budget); got != c.want {
			t.Errorf("%s: Retry-After %q, want %q", c.name, got, c.want)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	const n = 100
	primary, rep, pts, rts := newReplicatedPair(t, n, 2)
	applyRandomBatches(primary, n, 3, 20, 9)
	waitReplicaEpoch(t, rep, primary.Decomposition().Epoch())

	// Generate traffic so the histograms have samples, including an error.
	get(t, pts.URL+"/coreness?v=1")
	post(t, pts.URL+"/coreness/bulk", `{"vertices":[1,2,3]}`)
	get(t, pts.URL+"/top?k=2")
	get(t, pts.URL+"/coreness?v=notanumber")

	body := readBody(t, get(t, pts.URL+"/metrics"))
	for _, want := range []string{
		`kcore_http_requests_total{endpoint="/coreness",class="2xx"}`,
		`kcore_http_requests_total{endpoint="/coreness",class="4xx"}`,
		`kcore_http_request_duration_seconds_bucket{endpoint="/coreness/bulk",le="+Inf"}`,
		`kcore_http_request_duration_seconds_count{endpoint="/top"}`,
		"kcore_epoch ",
		"kcore_replication_followers 1",
		"kcore_replication_records_shipped_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("primary /metrics missing %q in:\n%s", want, body)
		}
	}

	get(t, rts.URL+"/coreness?v=1")
	body = readBody(t, get(t, rts.URL+"/metrics"))
	for _, want := range []string{
		"kcore_replication_connected 1",
		"kcore_replication_lag_epochs 0",
		"kcore_replication_bootstraps_total 1",
		"kcore_replication_records_applied_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("replica /metrics missing %q in:\n%s", want, body)
		}
	}
}
