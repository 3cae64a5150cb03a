package server

// Overload protection and failure isolation for the HTTP surface: every
// error response shares one structured JSON shape, panics are contained
// to the request that caused them, hostile or runaway clients are rate
// limited per remote address, slow requests are cut off by a deadline,
// and the heavy endpoints shed load once too many requests are in
// flight. The middleware chain (outermost first) is
//
//	rate limit → deadline → panic recovery → mux (+ per-route gate)
//
// so a shed or limited request costs almost nothing, and a panic inside
// a deadline-bounded handler still produces a structured 500.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// Error codes carried in the structured error body. Stable: clients and
// the smoke scripts match on these, not on the message text.
const (
	codeBadRequest  = "bad_request"
	codeTooLarge    = "too_large"
	codeEvicted     = "epoch_evicted"
	codeFuture      = "epoch_future"
	codeInternal    = "internal"
	codePanic       = "panic"
	codeRateLimited = "rate_limited"
	codeOverloaded  = "overloaded"
	codeTimeout     = "timeout"
	codeReadOnly    = "read_only"
	codeEpochBehind = "epoch_behind"
)

// errorResponse is the one JSON shape every error path answers with.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeError writes the structured JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = writeJSONBody(w, errorResponse{Error: msg, Code: code})
}

// --- panic recovery ---------------------------------------------------

// recoverMiddleware converts a handler panic into a structured 500 and a
// counter bump, leaving the engine and every other request untouched.
// http.ErrAbortHandler keeps its conventional meaning (abort silently).
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(p)
			}
			s.panics.Add(1)
			// Best effort: if the handler already wrote a header this is a
			// no-op on the status, but the connection still terminates with
			// a well-formed body for the common panic-before-write case.
			writeError(w, http.StatusInternalServerError, codePanic,
				fmt.Sprintf("internal panic: %v", p))
		}()
		next.ServeHTTP(w, r)
	})
}

// --- per-client rate limiting -----------------------------------------

// maxTrackedClients bounds the rate limiter's memory: beyond this many
// distinct client addresses, stale buckets are evicted first and an
// arbitrary one second, so an address-spoofing client cannot grow the
// table without bound.
const maxTrackedClients = 4096

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter is a hand-rolled token-bucket limiter keyed by client
// address: tokens refill at rps up to burst, one request costs one token.
type rateLimiter struct {
	rps   float64
	burst float64

	mu      sync.Mutex
	clients map[string]*bucket
}

func newRateLimiter(rps float64, burstN int) *rateLimiter {
	burst := float64(burstN)
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rps: rps, burst: burst, clients: make(map[string]*bucket)}
}

// allow reports whether the client identified by key may proceed at time
// now, charging one token if so.
func (rl *rateLimiter) allow(key string, now time.Time) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.clients[key]
	if b == nil {
		if len(rl.clients) >= maxTrackedClients {
			rl.evictLocked(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.clients[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rl.rps
	if b.tokens > rl.burst {
		b.tokens = rl.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictLocked drops every bucket that has fully refilled (the client has
// been idle long enough that forgetting it changes nothing), then, if the
// table is still full, an arbitrary entry. Caller holds mu.
func (rl *rateLimiter) evictLocked(now time.Time) {
	full := time.Duration(rl.burst / rl.rps * float64(time.Second))
	for k, b := range rl.clients {
		if now.Sub(b.last) >= full {
			delete(rl.clients, k)
		}
	}
	if len(rl.clients) >= maxTrackedClients {
		for k := range rl.clients {
			delete(rl.clients, k)
			break
		}
	}
}

// clientKey extracts the rate-limit key from a request: the remote host
// without the ephemeral port, so one client is one bucket across
// connections.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// rateLimitMiddleware answers 429 with a structured body once a client
// exceeds its bucket. Health probes are exempt: an orchestrator hammering
// /readyz must never trip the limiter and mask the service as down.
func (s *Server) rateLimitMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			next.ServeHTTP(w, r)
			return
		}
		if !s.rate.allow(clientKey(r), time.Now()) {
			s.rateLimited.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, codeRateLimited,
				"per-client request rate exceeded")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// --- max-in-flight load shedding --------------------------------------

// inflightGate sheds load on the heavy endpoints (updates and bulk
// reads) once more than cap(sem) requests are already in flight, so a
// saturating bulk client cannot queue unbounded work behind the engine
// while the cheap single-read path stays responsive.
type inflightGate struct {
	sem  chan struct{}
	shed func() // counter hook
}

func (g *inflightGate) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case g.sem <- struct{}{}:
			defer func() { <-g.sem }()
			next.ServeHTTP(w, r)
		default:
			g.shed()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, codeOverloaded,
				"too many requests in flight, retry later")
		}
	})
}

// --- per-request deadlines --------------------------------------------

// timeoutWriter buffers the handler's response so the timeout path can
// atomically decide who answers: the handler (buffer flushed to the real
// writer) or the deadline (structured 503, handler output discarded).
// This is http.TimeoutHandler's design with a JSON body instead of HTML.
type timeoutWriter struct {
	mu       sync.Mutex
	h        http.Header
	status   int
	buf      bytes.Buffer
	timedOut bool
}

func (tw *timeoutWriter) Header() http.Header {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.h
}

func (tw *timeoutWriter) WriteHeader(code int) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.status == 0 {
		tw.status = code
	}
}

func (tw *timeoutWriter) Write(p []byte) (int, error) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.timedOut {
		return 0, http.ErrHandlerTimeout
	}
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	return tw.buf.Write(p)
}

// flush copies the buffered response to the real writer. Returns false if
// the deadline already answered.
func (tw *timeoutWriter) flush(w http.ResponseWriter) bool {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.timedOut {
		return false
	}
	dst := w.Header()
	for k, v := range tw.h {
		dst[k] = v
	}
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	w.WriteHeader(tw.status)
	_, _ = w.Write(tw.buf.Bytes())
	return true
}

// expire marks the response as taken over by the deadline. Returns false
// if the handler finished first (flush won the race).
func (tw *timeoutWriter) expire() bool {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.status != 0 || tw.buf.Len() > 0 {
		// The handler already produced output; let it win to avoid
		// serving a 503 for work that actually completed. (flush still
		// runs when the handler goroutine finishes.)
		return false
	}
	tw.timedOut = true
	return true
}

// timeoutMiddleware bounds every request by s.reqTimeout: the handler
// runs with a context deadline and a buffered writer, and if the deadline
// fires before the handler writes anything the client gets a structured
// 503 while the handler's eventual output is discarded.
func (s *Server) timeoutMiddleware(next http.Handler) http.Handler {
	if s.reqTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/subscribe" {
			// A change-feed stream is expected to outlive any request
			// deadline, and the buffering timeoutWriter cannot flush SSE
			// frames as they are written.
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		tw := &timeoutWriter{h: make(http.Header)}
		done := make(chan struct{})
		panicChan := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicChan <- p
				}
			}()
			next.ServeHTTP(tw, r)
			close(done)
		}()
		select {
		case p := <-panicChan:
			panic(p)
		case <-done:
			tw.flush(w)
		case <-ctx.Done():
			if !tw.expire() {
				// Handler output raced the deadline and won; deliver it.
				<-done
				tw.flush(w)
				return
			}
			s.timeouts.Add(1)
			writeError(w, http.StatusServiceUnavailable, codeTimeout,
				fmt.Sprintf("request exceeded its %v deadline", s.reqTimeout))
		}
	})
}

// --- health endpoints --------------------------------------------------

// healthResponse is the JSON body of /healthz and /readyz.
type healthResponse struct {
	Status                string `json:"status"` // "ok", "ready", "degraded" or "syncing"
	Error                 string `json:"error,omitempty"`
	DegradedSinceUnixNano int64  `json:"degraded_since_unix_nano,omitempty"`
	DroppedBatches        uint64 `json:"dropped_batches,omitempty"`
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, healthResponse{Status: "ok"})
}

// handleReadyz is readiness: 200 while the service meets its durability
// contract, 503 with the failure detail while the WAL is degraded (reads
// and updates still work, but commits are not durable — an orchestrator
// should route traffic elsewhere if it can). On a replica, readiness
// additionally requires a synced replication stream: a replica that is
// bootstrapping (or cut off from the primary mid-reconnect) answers 503
// "syncing" so it is not routed read traffic while stale.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if rs, _ := s.d.ReplicationStats(); rs.Follower != nil && !rs.Follower.Synced {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = writeJSONBody(w, healthResponse{Status: "syncing", Error: rs.Follower.Err})
		return
	}
	st, durable := s.d.DurabilityStats()
	if !durable || !st.Degraded {
		writeJSON(w, healthResponse{Status: "ready"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = writeJSONBody(w, healthResponse{
		Status:                "degraded",
		Error:                 st.Err,
		DegradedSinceUnixNano: st.DegradedSinceUnixNano,
		DroppedBatches:        st.DroppedBatches,
	})
}
