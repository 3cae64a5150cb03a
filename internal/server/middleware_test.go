package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kcore"
	"kcore/internal/faultfs"
	"kcore/internal/lds"
)

// newTestService builds the Server (for direct access to gates, counters
// and the WAL) alongside its httptest frontend.
func newTestService(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(100, lds.DefaultParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, ts
}

func decodeError(t *testing.T, resp *http.Response) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not structured JSON: %v", err)
	}
	return e
}

func TestStructuredErrorBodies(t *testing.T) {
	s, ts := newTestService(t, WithMaxBatchEdges(8))
	post(t, ts.URL+"/edges/insert", triangleBody())
	nineEdges := `{"insert":[{"u":0,"v":1},{"u":0,"v":2},{"u":0,"v":3},{"u":0,"v":4},{"u":0,"v":5},` +
		`{"u":0,"v":6},{"u":0,"v":7},{"u":0,"v":8},{"u":0,"v":9}]}`
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"bad vertex", "GET", "/coreness?v=notanumber", "", http.StatusBadRequest, codeBadRequest},
		{"vertex out of range", "GET", "/coreness?v=100", "", http.StatusBadRequest, codeBadRequest},
		{"bad epoch", "GET", "/coreness?v=0&epoch=x", "", http.StatusBadRequest, codeBadRequest},
		{"unknown mode", "GET", "/coreness?v=0&mode=psychic", "", http.StatusBadRequest, codeBadRequest},
		{"mode with epoch", "GET", "/coreness?v=0&mode=nonsync&epoch=1", "", http.StatusBadRequest, codeBadRequest},
		{"future epoch", "GET", "/coreness?v=0&epoch=999999", "", http.StatusNotFound, codeFuture},
		{"bad min_epoch", "GET", "/coreness?v=0&min_epoch=x", "", http.StatusBadRequest, codeBadRequest},
		{"bad k", "GET", "/top?k=0", "", http.StatusBadRequest, codeBadRequest},
		{"top bad epoch", "GET", "/top?k=1&epoch=x", "", http.StatusBadRequest, codeBadRequest},
		{"top future epoch", "GET", "/top?k=1&epoch=999999", "", http.StatusNotFound, codeFuture},
		{"top bad min_epoch", "GET", "/top?k=1&min_epoch=x", "", http.StatusBadRequest, codeBadRequest},
		{"bulk future epoch", "POST", "/coreness/bulk", `{"vertices":[0],"epoch":999999}`, http.StatusNotFound, codeFuture},
		{"bad bulk JSON", "POST", "/coreness/bulk", "{nope", http.StatusBadRequest, codeBadRequest},
		{"empty bulk", "POST", "/coreness/bulk", `{"vertices":[]}`, http.StatusBadRequest, codeBadRequest},
		{"bulk vertex range", "POST", "/coreness/bulk", `{"vertices":[12345]}`, http.StatusBadRequest, codeBadRequest},
		{"bad edge list", "POST", "/edges/insert", "zero one\n", http.StatusBadRequest, codeBadRequest},
		{"edge out of range", "POST", "/edges/insert", "0 12345\n", http.StatusBadRequest, codeBadRequest},
		{"bad batch JSON", "POST", "/edges/batch", "{nope", http.StatusBadRequest, codeBadRequest},
		{"empty batch", "POST", "/edges/batch", `{"insert":[],"delete":[]}`, http.StatusBadRequest, codeBadRequest},
		{"batch vertex range", "POST", "/edges/batch", `{"insert":[{"u":0,"v":12345}]}`, http.StatusBadRequest, codeBadRequest},
		{"batch delete vertex at n", "POST", "/edges/batch", `{"delete":[{"u":100,"v":0}]}`, http.StatusBadRequest, codeBadRequest},
		{"batch trailing bytes", "POST", "/edges/batch", `{"insert":[{"u":0,"v":1}]} {}`, http.StatusBadRequest, codeBadRequest},
		{"batch negative id", "POST", "/edges/batch", `{"insert":[{"u":-1,"v":1}]}`, http.StatusBadRequest, codeBadRequest},
		{"batch fractional id", "POST", "/edges/batch", `{"insert":[{"u":1.5,"v":1}]}`, http.StatusBadRequest, codeBadRequest},
		{"batch exponent id", "POST", "/edges/batch", `{"insert":[{"u":1e3,"v":1}]}`, http.StatusBadRequest, codeBadRequest},
		{"batch string id", "POST", "/edges/batch", `{"insert":[{"u":"7","v":1}]}`, http.StatusBadRequest, codeBadRequest},
		{"batch unknown field", "POST", "/edges/batch", `{"insert":[{"u":0,"v":1}],"upsert":[]}`, http.StatusBadRequest, codeBadRequest},
		{"batch unknown edge field", "POST", "/edges/batch", `{"insert":[{"u":0,"v":1,"w":2}]}`, http.StatusBadRequest, codeBadRequest},
		{"batch truncated", "POST", "/edges/batch", `{"insert":[{"u":0,"v":1}`, http.StatusBadRequest, codeBadRequest},
		{"batch body over the byte limit", "POST", "/edges/batch", batchBodyAt(int(s.batchBodyLimit()) + 1), http.StatusRequestEntityTooLarge, codeTooLarge},
		{"batch over the edge limit", "POST", "/edges/batch", nineEdges, http.StatusRequestEntityTooLarge, codeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			if tc.method == "GET" {
				resp = get(t, ts.URL+tc.path)
			} else {
				resp = post(t, ts.URL+tc.path, tc.body)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			e := decodeError(t, resp)
			if e.Code != tc.wantCode {
				t.Fatalf("code %q, want %q (error %q)", e.Code, tc.wantCode, e.Error)
			}
			if e.Error == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestFloorWaitAfterValidation: a read handler validates the whole request
// before it waits on the min_epoch floor, so a malformed request is
// answered 400 at once rather than 412 after the whole wait.
func TestFloorWaitAfterValidation(t *testing.T) {
	_, ts := newTestService(t, WithMinEpochWait(0))
	for _, path := range []string{
		"/coreness?v=0&min_epoch=1000&mode=nonsync&epoch=1",
		"/coreness?v=0&min_epoch=1000&epoch=x",
		"/coreness?v=0&min_epoch=1000&mode=psychic",
		"/top?k=1&min_epoch=1000&epoch=x",
	} {
		t.Run(path, func(t *testing.T) {
			resp := get(t, ts.URL+path)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if e := decodeError(t, resp); e.Code != codeBadRequest {
				t.Fatalf("code %q, want %q (error %q)", e.Code, codeBadRequest, e.Error)
			}
		})
	}
}

func TestErrorBodySizeLimits(t *testing.T) {
	_, ts := newTestService(t, WithMaxBatchEdges(2))
	resp := post(t, ts.URL+"/edges/insert", "0 1\n1 2\n2 3\n")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != codeTooLarge {
		t.Fatalf("code %q, want %q", e.Code, codeTooLarge)
	}
	resp = post(t, ts.URL+"/edges/batch", `{"insert":[{"u":0,"v":1},{"u":1,"v":2},{"u":2,"v":3}]}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch status %d, want 413", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != codeTooLarge {
		t.Fatalf("batch code %q, want %q", e.Code, codeTooLarge)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s, err := New(10, lds.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	h := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/coreness?v=0", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
		t.Fatalf("panic body is not structured JSON: %v", err)
	}
	if e.Code != codePanic || !strings.Contains(e.Error, "handler bug") {
		t.Fatalf("panic body %+v", e)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics counter %d, want 1", got)
	}
	// The recovered handler chain is reusable: a healthy handler behind the
	// same middleware still answers.
	ok := s.recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	rec = httptest.NewRecorder()
	ok.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("post-panic request status %d", rec.Code)
	}
}

func TestRateLimiterUnit(t *testing.T) {
	rl := newRateLimiter(1, 2) // 1 rps, burst 2
	now := time.Unix(1000, 0)
	if !rl.allow("a", now) || !rl.allow("a", now) {
		t.Fatal("burst of 2 denied")
	}
	if rl.allow("a", now) {
		t.Fatal("third instantaneous request allowed past burst")
	}
	if !rl.allow("b", now) {
		t.Fatal("fresh client denied by another client's bucket")
	}
	// 1 second refills 1 token.
	if !rl.allow("a", now.Add(time.Second)) {
		t.Fatal("refilled token denied")
	}
	if rl.allow("a", now.Add(time.Second)) {
		t.Fatal("token charged twice")
	}
}

func TestRateLimiterEvictionBound(t *testing.T) {
	rl := newRateLimiter(1, 1)
	now := time.Unix(1000, 0)
	for i := 0; i < maxTrackedClients+100; i++ {
		rl.allow(fmt.Sprintf("client-%d", i), now)
	}
	if n := len(rl.clients); n > maxTrackedClients {
		t.Fatalf("limiter tracks %d clients, cap is %d", n, maxTrackedClients)
	}
	// Stale buckets (fully refilled) are evicted in preference to live ones.
	rl.allow("live", now.Add(10*time.Second))
	for i := 0; i < maxTrackedClients; i++ {
		rl.allow(fmt.Sprintf("later-%d", i), now.Add(10*time.Second))
	}
	if n := len(rl.clients); n > maxTrackedClients {
		t.Fatalf("limiter tracks %d clients after second wave", n)
	}
}

func TestRateLimitEndToEnd(t *testing.T) {
	// 0.001 rps: refill over the test's lifetime is negligible, so exactly
	// burst requests succeed.
	s, ts := newTestService(t, WithRateLimit(0.001, 3))
	okCount, limited := 0, 0
	for i := 0; i < 6; i++ {
		resp := get(t, ts.URL+"/coreness?v=0")
		switch resp.StatusCode {
		case http.StatusOK:
			okCount++
		case http.StatusTooManyRequests:
			limited++
			if e := decodeError(t, resp); e.Code != codeRateLimited {
				t.Fatalf("429 code %q", e.Code)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if okCount != 3 || limited != 3 {
		t.Fatalf("ok=%d limited=%d, want 3/3", okCount, limited)
	}
	if got := s.rateLimited.Load(); got != 3 {
		t.Fatalf("rate-limited counter %d, want 3", got)
	}
	// Health probes bypass the limiter even for an exhausted client.
	for i := 0; i < 5; i++ {
		if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d with exhausted bucket", resp.StatusCode)
		}
		if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz status %d with exhausted bucket", resp.StatusCode)
		}
	}
}

func TestMaxInFlightShedsHeavyKeepsReads(t *testing.T) {
	// Deterministic: fill the gate's semaphore directly instead of racing
	// real slow requests against each other.
	s, ts := newTestService(t, WithMaxInFlight(2))
	s.gate.sem <- struct{}{}
	s.gate.sem <- struct{}{}

	resp := post(t, ts.URL+"/edges/batch", `{"insert":[{"u":0,"v":1}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated batch status %d, want 503", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != codeOverloaded {
		t.Fatalf("shed code %q, want %q", e.Code, codeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if resp := post(t, ts.URL+"/edges/insert", "0 1\n"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated insert status %d, want 503", resp.StatusCode)
	}
	// The cheap paths answer normally while the heavy ones shed.
	if resp := get(t, ts.URL+"/coreness?v=0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("single read status %d while gate full", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d while gate full", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d while gate full", resp.StatusCode)
	}
	if got := s.loadShed.Load(); got != 2 {
		t.Fatalf("load-shed counter %d, want 2", got)
	}
	// Draining the gate restores the heavy endpoints.
	<-s.gate.sem
	<-s.gate.sem
	if resp := post(t, ts.URL+"/edges/batch", `{"insert":[{"u":0,"v":1}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d after gate drained", resp.StatusCode)
	}
}

func TestRequestTimeoutMiddleware(t *testing.T) {
	s, err := New(10, lds.DefaultParams(), WithRequestTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	slow := s.timeoutMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // block until the deadline cancels us
	}))
	rec := httptest.NewRecorder()
	slow.ServeHTTP(rec, httptest.NewRequest("GET", "/top?k=1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("slow handler status %d, want 503", rec.Code)
	}
	var e errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || e.Code != codeTimeout {
		t.Fatalf("timeout body %+v (err %v)", e, err)
	}
	if got := s.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter %d, want 1", got)
	}
	// A fast handler's buffered response flows through untouched.
	fast := s.timeoutMiddleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Fast", "yes")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, "body")
	}))
	rec = httptest.NewRecorder()
	fast.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusCreated || rec.Body.String() != "body" || rec.Header().Get("X-Fast") != "yes" {
		t.Fatalf("fast handler response mangled: %d %q", rec.Code, rec.Body.String())
	}
}

func TestReadyzDegradedThenReattach(t *testing.T) {
	// The acceptance path, deterministically: a permanent injected fsync
	// failure degrades the WAL; /readyz flips to 503 and /stats reports it
	// while reads and updates keep working; lifting the fault and calling
	// Reattach restores readiness. No sleeps — the background loop is
	// disabled and the transition is driven explicitly.
	inj := faultfs.New(nil)
	dir := t.TempDir()
	s, ts := newTestService(t, WithWAL(dir, kcore.WALOptions{
		FS:            inj,
		Sync:          kcore.SyncAlways,
		AppendRetries: -1,
		ReattachEvery: -1,
	}))
	if resp := post(t, ts.URL+"/edges/insert", triangleBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy insert status %d", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d while healthy", resp.StatusCode)
	}

	inj.FailSyncs(0, -1)
	if resp := post(t, ts.URL+"/edges/insert", "3 4\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert during fault status %d (updates must keep working)", resp.StatusCode)
	}
	resp := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d after durability loss, want 503", resp.StatusCode)
	}
	hr := decode[healthResponse](t, resp)
	if hr.Status != "degraded" || hr.Error == "" {
		t.Fatalf("readyz body %+v", hr)
	}
	// Liveness is unaffected; reads and further updates still answer.
	if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d while degraded", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/coreness?v=0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("read %d while degraded", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/edges/insert", "4 5\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert %d while degraded", resp.StatusCode)
	}
	st := decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if st.Durability == nil || !st.Durability.Degraded || st.Durability.DroppedBatches == 0 {
		t.Fatalf("stats durability block %+v does not reflect degradation", st.Durability)
	}

	inj.Clear()
	if err := s.Reattach(); err != nil {
		t.Fatalf("Reattach after lifting the fault: %v", err)
	}
	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d after re-attach, want 200", resp.StatusCode)
	}
	st = decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if st.Durability.Degraded || st.Durability.Reattaches != 1 || st.Durability.Err != "" {
		t.Fatalf("stats durability %+v after re-attach", st.Durability)
	}
}
