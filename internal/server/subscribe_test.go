package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kcore"
	"kcore/internal/lds"
)

// sseMessage is one parsed server-sent event.
type sseMessage struct {
	Event string
	Data  string
}

// readSSE reads the next SSE message, skipping comment (heartbeat) lines.
func readSSE(br *bufio.Reader) (sseMessage, error) {
	var m sseMessage
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return m, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if m.Event != "" || m.Data != "" {
				return m, nil
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "event: "):
			m.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			m.Data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// openStream starts a /subscribe stream and returns its reader plus a
// cancel that tears the request down.
func openStream(t *testing.T, base, params string) (*bufio.Reader, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/subscribe"+params, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	t.Cleanup(func() { cancel(); resp.Body.Close() })
	return bufio.NewReader(resp.Body), cancel
}

// TestSubscribeStreamsCommittedEpochs checks the SSE happy path end to
// end: hello first, then per-epoch event messages whose values agree with
// epoch-pinned /coreness reads.
func TestSubscribeStreamsCommittedEpochs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ts := newTestServer(t, WithShards(shards), WithRetainedEpochs(32))
			br, _ := openStream(t, ts.URL, "")

			m, err := readSSE(br)
			if err != nil || m.Event != "hello" {
				t.Fatalf("first message = %+v, err %v", m, err)
			}
			var hello sseHello
			if err := json.Unmarshal([]byte(m.Data), &hello); err != nil {
				t.Fatal(err)
			}

			post(t, ts.URL+"/edges/insert", triangleBody())
			post(t, ts.URL+"/edges/insert", "0 3\n1 3\n2 3\n")

			deadline := time.Now().Add(5 * time.Second)
			total := 0
			for total == 0 && time.Now().Before(deadline) {
				m, err := readSSE(br)
				if err != nil {
					t.Fatal(err)
				}
				if m.Event != "epoch" {
					t.Fatalf("unexpected message %+v", m)
				}
				var ep sseEpoch
				if err := json.Unmarshal([]byte(m.Data), &ep); err != nil {
					t.Fatal(err)
				}
				if ep.Epoch <= hello.Epoch {
					t.Fatalf("epoch %d not after hello epoch %d", ep.Epoch, hello.Epoch)
				}
				for _, ev := range ep.Events {
					if ev.Epoch != ep.Epoch {
						t.Fatalf("event epoch %d in message for epoch %d", ev.Epoch, ep.Epoch)
					}
					cr := decode[corenessResponse](t, get(t,
						fmt.Sprintf("%s/coreness?v=%d&epoch=%d", ts.URL, ev.Vertex, ep.Epoch)))
					if math.Float64bits(cr.Coreness) != math.Float64bits(ev.NewCore) {
						t.Fatalf("vertex %d epoch %d: stream new_core %v, pinned read %v",
							ev.Vertex, ep.Epoch, ev.NewCore, cr.Coreness)
					}
				}
				total += len(ep.Events)
			}
			if total == 0 {
				t.Fatal("no events streamed for two committed batches")
			}
		})
	}
}

// TestSubscribeFilterParams checks that a cross_k-filtered stream only
// carries threshold crossings, and that bad parameters are rejected.
func TestSubscribeFilterParams(t *testing.T) {
	ts := newTestServer(t, WithRetainedEpochs(8))
	const k = 2.0
	br, _ := openStream(t, ts.URL, fmt.Sprintf("?cross_k=%g", k))
	if m, err := readSSE(br); err != nil || m.Event != "hello" {
		t.Fatalf("hello: %+v, err %v", m, err)
	}

	// A 6-clique lifts its members' coreness well above 2.
	var b strings.Builder
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			fmt.Fprintf(&b, "%d %d\n", i, j)
		}
	}
	post(t, ts.URL+"/edges/insert", b.String())

	m, err := readSSE(br)
	if err != nil || m.Event != "epoch" {
		t.Fatalf("epoch message: %+v, err %v", m, err)
	}
	var ep sseEpoch
	if err := json.Unmarshal([]byte(m.Data), &ep); err != nil {
		t.Fatal(err)
	}
	if len(ep.Events) == 0 {
		t.Fatal("clique produced no crossing events")
	}
	for _, ev := range ep.Events {
		if (ev.OldCore < k) == (ev.NewCore < k) {
			t.Fatalf("non-crossing event leaked through cross_k: %+v", ev)
		}
	}

	for _, params := range []string{
		"?vertices=abc",
		"?vertices=100", // out of range: test server has 100 vertices
		"?vertices=,,",
		"?cross_k=-1",
		"?cross_k=nope",
		"?min_delta=0",
	} {
		resp := get(t, ts.URL+"/subscribe"+params)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", params, resp.StatusCode)
		}
	}
}

// TestSubscribeSubscriberCap checks the 503 past WithMaxSubscribers.
func TestSubscribeSubscriberCap(t *testing.T) {
	ts := newTestServer(t, WithMaxSubscribers(1))
	br, cancel := openStream(t, ts.URL, "")
	if m, err := readSSE(br); err != nil || m.Event != "hello" {
		t.Fatalf("hello: %+v, err %v", m, err)
	}
	resp := get(t, ts.URL+"/subscribe")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream status %d, want 503", resp.StatusCode)
	}
	var e errorResponse
	if err := jsonDecode(resp, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != codeOverloaded {
		t.Fatalf("error code %q", e.Code)
	}
	// Releasing the first stream frees the slot.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s2, err := http.Get(ts.URL + "/subscribe")
		if err != nil {
			t.Fatal(err)
		}
		if s2.StatusCode == http.StatusOK {
			s2.Body.Close()
			return
		}
		s2.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after disconnect (last status %d)", s2.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeSlowClientGetsGap commits real batches into a 1-slot
// subscription whose client stops reading, and asserts that the commits
// never stall and that the wire carries a well-formed gap message once
// the client reads again.
func TestSubscribeSlowClientGetsGap(t *testing.T) {
	const n = 2000
	s, err := New(n, lds.DefaultParams(), WithEventBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	br, _ := openStream(t, ts.URL, "")
	if m, err := readSSE(br); err != nil || m.Event != "hello" {
		t.Fatalf("hello: %+v, err %v", m, err)
	}

	// Insert and delete disjoint 3-stars in turn: every commit moves each
	// star's centre by one level, so every delivery carries n/4 events.
	// With the client not reading, the socket buffers fill, the stream
	// goroutine blocks on its write and the next commit finds the 1-slot
	// buffer full. Commits go on regardless — that is the property under
	// test — until one of them flushes the gap marker once the client reads
	// again.
	d := s.Decomposition()
	var edges []kcore.Edge
	for c := uint32(0); c < n; c += 4 {
		edges = append(edges, kcore.Edge{U: c, V: c + 1}, kcore.Edge{U: c, V: c + 2}, kcore.Edge{U: c, V: c + 3})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(20 * time.Second)
		for i := 0; time.Now().Before(deadline) && d.FeedStats().Gaps == 0; i++ {
			if i%2 == 0 {
				d.InsertEdges(edges)
			} else {
				d.DeleteEdges(edges)
			}
		}
	}()
	for d.FeedStats().Drops == 0 {
		select {
		case <-done:
			if st := d.FeedStats(); st.Drops == 0 {
				t.Fatalf("no delivery dropped: %+v", st)
			}
		case <-time.After(time.Millisecond):
		}
	}

	sawGap := false
	for !sawGap {
		m, err := readSSE(br)
		if err != nil {
			t.Fatalf("stream ended before gap: %v", err)
		}
		switch m.Event {
		case "epoch":
		case "gap":
			var g sseGap
			if err := json.Unmarshal([]byte(m.Data), &g); err != nil {
				t.Fatal(err)
			}
			if g.To < g.From || g.From == 0 {
				t.Fatalf("malformed gap %+v", g)
			}
			sawGap = true
		default:
			t.Fatalf("unexpected message %+v", m)
		}
	}
	<-done
	if st := d.FeedStats(); st.Drops == 0 || st.Gaps == 0 {
		t.Fatalf("feed stats missed the overrun: %+v", st)
	}
}

// TestStatsMetricsFeedRaceWithLiveFollower hammers /stats and /metrics on
// both ends of a live replication pair while batches ship and a change
// feed streams — the -race proof that every stats surface those handlers
// read is safe against the apply and publish paths.
func TestStatsMetricsFeedRaceWithLiveFollower(t *testing.T) {
	primary, rep, pts, rts := newReplicatedPair(t, 200, 2)

	br, _ := openStream(t, pts.URL, "")
	if m, err := readSSE(br); err != nil || m.Event != "hello" {
		t.Fatalf("hello: %+v, err %v", m, err)
	}
	go func() {
		for {
			if _, err := readSSE(br); err != nil {
				return
			}
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, url := range []string{pts.URL + "/stats", pts.URL + "/metrics", rts.URL + "/stats", rts.URL + "/metrics"} {
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(url)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(url)
		}
	}

	applyRandomBatches(primary, 200, 30, 50, 7)
	waitReplicaEpoch(t, rep, primary.Decomposition().Epoch())
	close(stop)
	wg.Wait()
}
