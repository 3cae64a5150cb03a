// Package server exposes a Decomposition-style k-core service over HTTP —
// the deployment shape the paper motivates in §1: a read-dominated,
// latency-sensitive query path (social networks, search) concurrent with a
// batched update path.
//
// Endpoints:
//
//	GET  /coreness?v=<id>[&mode=...][&epoch=<e>][&min_epoch=<e>]
//	POST /coreness/bulk              — JSON vertex list, one consistent cut
//	GET  /top?k=<n>[&epoch=<e>][&min_epoch=<e>]
//	GET  /subscribe                  — SSE coreness change feed (subscribe.go)
//	GET  /stats                      — graph, batch and replication counters
//	GET  /metrics                    — Prometheus text exposition (metrics.go)
//	GET  /healthz                    — liveness (always 200 while serving)
//	GET  /readyz                     — readiness (503 while WAL degraded or
//	                                   a replica is not yet synced)
//	POST /edges/insert               — body: "u v" per line; one batch
//	POST /edges/delete               — body: "u v" per line; one batch
//	POST /edges/batch                — JSON mixed batch (see below)
//	POST /snapshot                   — trigger a durability snapshot
//
// Every error path answers with one structured JSON shape,
// {"error": <message>, "code": <stable-code>}, and the service carries
// its own overload protection (per-client rate limiting, per-request
// deadlines, a max-in-flight gate on the heavy endpoints, panic
// isolation) — see middleware.go.
//
// # Update batches
//
// The body of POST /edges/batch is one JSON object with an insertion and a
// deletion list, either of which may be omitted:
//
//	{"insert":[{"u":0,"v":1},{"u":1,"v":2}],"delete":[{"u":2,"v":3}]}
//
// Vertex ids are non-negative integers below the vertex count, written
// without sign, fraction or exponent. Unknown fields are rejected, and so
// is anything but whitespace after the object. The body is read in one
// pass (batch.go), and accepts what encoding/json accepts for this schema:
// keys match case-insensitively, the last of repeated keys wins, null
// empties a list, and null for an edge or an id counts as omitted. The
// insertions then the deletions are applied as one update call
// (kcore.Decomposition.Update). The reply is
// {"inserted":i,"deleted":d,"batch":e}, where e is the epoch the call
// committed, and /edges/insert and /edges/delete reply
// {"applied":n,"batch":e} the same way: a read with min_epoch=e sees the
// update.
//
// # Replication
//
// WithReplicationListen serves the batch-log shipping stream on a second
// listener; any number of follower servers (WithReplicationSource) each
// bootstrap from it and then apply the primary's committed batches,
// serving the full read surface from byte-identical state. On a follower
// every mutating endpoint answers 403 with the stable code "read_only".
//
// Because a follower's epochs advance exactly as the primary's did, an
// epoch observed on one server is meaningful on the other. A client that
// has seen epoch e (any response's "epoch" field) passes it as a floor —
// `?min_epoch=e` on /coreness and /top, "min_epoch" in the bulk body —
// and the server either serves at an epoch >= e or, if still behind the
// floor after WithMinEpochWait, sheds the request with 412 and the stable
// code "epoch_behind". Bouncing between primary and replicas then never
// reads time backwards.
//
// The server is an HTTP front end over one kcore.Decomposition: the
// engine, write-ahead log, change feed and replication role all come from
// the library, configured by this package's options. Reads go through the
// Decomposition's Views and never block on updates; update requests from
// concurrent clients become ApplyBatch/InsertEdges/DeleteEdges calls, which
// the engine applies one after another, with the same semantics at every
// shard count.
//
// Every read response carries an "epoch" field: the committed batch
// boundary (cross-shard, when sharded) the response was served from.
// Multi-vertex responses (/coreness/bulk, /top) are epoch-pinned — all
// values belong to that single boundary, never a torn mix of concurrent
// batches — so two responses reporting the same epoch observed the
// identical committed state. Single-vertex /coreness responses report the
// boundary the linearizable read belongs to (for the nonsync and blocking
// modes the field is the current committed epoch, which those protocols do
// not pin).
//
// Read endpoints also accept a *requested* epoch (`?epoch=` on /coreness
// and /top, the "epoch" field on /coreness/bulk): the response is then
// served exactly at that committed boundary — even a retired one, within
// the engine's retention window (WithRetainedEpochs) — so paginated or
// multi-request clients can read a frozen cut across requests. The epoch
// is pinned for the duration of the request, so a served response is never
// torn by concurrent eviction. Requests for epochs that aged out of the
// window fail with 410 Gone; epochs not committed yet fail with 404.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/graph"
	"kcore/internal/lds"
)

// DefaultMaxBatchEdges bounds the total number of edges accepted in one
// /edges/batch request unless overridden with WithMaxBatchEdges.
const DefaultMaxBatchEdges = 1 << 20

// DefaultRetainedEpochs is the default multi-version retention depth:
// how many retired epochs stay servable through the requested-epoch read
// forms. Override with WithRetainedEpochs.
const DefaultRetainedEpochs = kcore.DefaultRetainedEpochs

// Option configures a Server. The engine's options (shards, retention,
// WAL, replication, feed limits) are collected for kcore.New; the rest
// configure the HTTP layer.
type Option func(*Server)

// engineOption collects o for the Decomposition New builds.
func engineOption(o kcore.Option) Option {
	return func(s *Server) { s.engineOpts = append(s.engineOpts, o) }
}

// WithShards sets the number of engine shards (default 1; p < 1 means 1).
func WithShards(p int) Option { return engineOption(kcore.WithShards(max(p, 1))) }

// WithMaxBatchEdges caps the total edges accepted per /edges/batch request.
func WithMaxBatchEdges(max int) Option {
	return func(s *Server) { s.maxBatchEdges = max }
}

// WithRetainedEpochs sets the multi-version retention depth: the n most
// recent retired epochs stay servable through `?epoch=` / the bulk "epoch"
// field. 0 disables requested-epoch reads (only the current epoch is
// servable); negative values are clamped to 0.
func WithRetainedEpochs(n int) Option { return engineOption(kcore.WithRetainedEpochs(max(n, 0))) }

// WithWAL makes the service durable: applied batches are write-ahead
// logged to dir and New recovers the pre-crash state from dir before
// serving. The /stats response then carries a "durability" block.
func WithWAL(dir string, o kcore.WALOptions) Option { return engineOption(kcore.WithWAL(dir, o)) }

// WithRateLimit enables per-client token-bucket rate limiting: each
// remote address may issue rps requests/second sustained with the given
// burst headroom; excess requests answer 429. rps <= 0 disables limiting
// (the default).
func WithRateLimit(rps float64, burst int) Option {
	return func(s *Server) {
		if rps > 0 {
			s.rate = newRateLimiter(rps, burst)
		}
	}
}

// WithMaxInFlight caps concurrently executing heavy requests (updates
// and bulk reads): request n+1 answers 503 immediately instead of
// queueing. n <= 0 disables the gate (the default). Single-vertex reads,
// stats and health probes are never gated.
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.gate = &inflightGate{sem: make(chan struct{}, n)}
		}
	}
}

// WithRequestTimeout bounds every request by d: a handler that has not
// written its response within d answers 503 with code "timeout". d <= 0
// disables deadlines (the default).
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// DefaultMinEpochWait is how long an epoch-floor read (min_epoch) waits
// for the engine to catch up before shedding with 412. Override with
// WithMinEpochWait.
const DefaultMinEpochWait = 2 * time.Second

// WithReplicationListen makes this server a replication primary: the
// batch-log shipping stream is served on its own listener at addr
// (host:port; ":0" picks a free port, see ReplicationAddr). Composes with
// WithWAL. Follower servers point WithReplicationSource here.
func WithReplicationListen(addr string) Option {
	return engineOption(kcore.WithReplicationListen(addr))
}

// WithReplicationSource makes this server a read-only replica of the
// primary whose replication listener is at addr: New blocks until the
// first bootstrap has been applied, every mutating endpoint answers 403
// "read_only", and the read surface serves the primary's replicated
// state. Incompatible with WithWAL (durability belongs to the primary; a
// restarted replica re-bootstraps).
func WithReplicationSource(addr string) Option {
	return engineOption(kcore.WithReplicationSource(addr))
}

// WithReplicationOptions overrides the replication transport tuning
// (heartbeat, tail buffer and retained batches for the primary, timeouts,
// reconnect backoff and initial sync for a replica).
func WithReplicationOptions(ro kcore.ReplicationOptions) Option {
	return engineOption(kcore.WithReplicationOptions(ro))
}

// WithMinEpochWait bounds how long an epoch-floor read (min_epoch) may
// wait for the engine to reach the floor before answering 412
// "epoch_behind". d <= 0 sheds immediately when behind.
func WithMinEpochWait(d time.Duration) Option {
	return func(s *Server) { s.minEpochWait = d }
}

// WithMaxSubscribers caps concurrent /subscribe connections: the next
// subscription answers 503 "overloaded". n <= 0 means unlimited (the
// default).
func WithMaxSubscribers(n int) Option { return engineOption(kcore.WithMaxSubscribers(max(n, 0))) }

// WithEventBuffer sets the per-subscriber delivery buffer of /subscribe
// streams, in per-epoch deliveries (default 64). A subscriber further
// behind than the buffer receives a gap marker instead of the missed
// events. n <= 0 keeps the default.
func WithEventBuffer(n int) Option { return engineOption(kcore.WithEventBuffer(max(n, 0))) }

// WithFeedHeartbeat sets how often an idle /subscribe stream emits an SSE
// comment line (default DefaultFeedHeartbeat). d <= 0 keeps the default.
func WithFeedHeartbeat(d time.Duration) Option {
	return func(s *Server) { s.feedHeartbeat = d }
}

// Server is an HTTP k-core query/update service over one
// kcore.Decomposition.
type Server struct {
	d          *kcore.Decomposition
	engineOpts []kcore.Option // collected by the options for New

	maxBatchEdges int
	rate          *rateLimiter  // nil = no rate limiting
	gate          *inflightGate // nil = no in-flight cap
	reqTimeout    time.Duration // <= 0 = no per-request deadline
	minEpochWait  time.Duration
	feedHeartbeat time.Duration // 0 = DefaultFeedHeartbeat

	metrics *metrics

	// API-level counters: edges applied through this server and vertices
	// read, as opposed to the engine's own per-shard counters.
	inserted atomic.Int64
	deleted  atomic.Int64
	reads    atomic.Int64

	rateLimited atomic.Int64
	loadShed    atomic.Int64
	timeouts    atomic.Int64
	panics      atomic.Int64
}

// New creates a service over n vertices. It fails when kcore.New does:
// invalid parameters, conflicting replication roles, a WAL on a replica, a
// log directory that cannot be opened or recovered, an unbindable
// replication listener or a replica's failed initial sync.
func New(n int, p lds.Params, opts ...Option) (*Server, error) {
	s := &Server{
		maxBatchEdges: DefaultMaxBatchEdges,
		minEpochWait:  DefaultMinEpochWait,
		metrics:       newMetrics(),
	}
	for _, opt := range opts {
		opt(s)
	}
	params := kcore.WithParams(kcore.Params{Delta: p.Delta, Lambda: p.Lambda})
	d, err := kcore.New(n, append([]kcore.Option{params}, s.engineOpts...)...)
	if err != nil {
		return nil, err
	}
	s.d = d
	return s, nil
}

// Decomposition exposes the served decomposition (tests, bulk tooling).
func (s *Server) Decomposition() *kcore.Decomposition { return s.d }

// ReadOnly reports whether this server is a replica (WithReplicationSource).
func (s *Server) ReadOnly() bool { return s.d.ReadOnly() }

// ReplicationAddr returns the bound replication listener address
// (WithReplicationListen; useful with ":0"), or "" when not a primary.
func (s *Server) ReplicationAddr() string { return s.d.ReplicationAddr() }

// Snapshot checkpoints the engine state to the WAL directory, truncating
// the log's replay tail. It requires WithWAL.
func (s *Server) Snapshot() error { return s.d.Snapshot() }

// Close stops replication (either role), ends every /subscribe stream and
// flushes and closes the write-ahead log. Idempotent and safe to call
// concurrently with Snapshot; a closed replica keeps serving its last
// applied state.
func (s *Server) Close() error { return s.d.Close() }

// Reattach attempts to restore durability after the WAL degraded (see
// kcore.Decomposition.Reattach). It requires WithWAL.
func (s *Server) Reattach() error { return s.d.Reattach() }

// InsertBatch applies an insertion batch directly (bulk loading at
// startup), with the same accounting as the HTTP endpoint.
func (s *Server) InsertBatch(edges []graph.Edge) int {
	applied := s.d.InsertEdges(toEdges(edges))
	s.inserted.Add(int64(applied))
	return applied
}

// toEdges copies parsed edges into the library's edge type.
func toEdges(in []graph.Edge) []kcore.Edge {
	out := make([]kcore.Edge, len(in))
	for i, e := range in {
		out[i] = kcore.Edge(e)
	}
	return out
}

// Handler returns the HTTP handler for the service: the route mux with
// every endpoint instrumented for /metrics, the heavy endpoints behind
// the in-flight gate, the mutating endpoints behind the read-only guard,
// wrapped (innermost to outermost) in panic recovery, the per-request
// deadline and the per-client rate limiter.
func (s *Server) Handler() http.Handler {
	heavy := func(h http.Handler) http.Handler {
		if s.gate == nil {
			return h
		}
		return s.gate.wrap(h)
	}
	if s.gate != nil {
		s.gate.shed = func() { s.loadShed.Add(1) }
	}
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.Handler) {
		mux.Handle(pattern, s.metrics.instrument(name, h))
	}
	route("GET /coreness", "/coreness", http.HandlerFunc(s.handleCoreness))
	route("POST /coreness/bulk", "/coreness/bulk", heavy(http.HandlerFunc(s.handleCorenessBulk)))
	route("GET /top", "/top", heavy(http.HandlerFunc(s.handleTop)))
	route("GET /stats", "/stats", http.HandlerFunc(s.handleStats))
	route("GET /healthz", "/healthz", http.HandlerFunc(s.handleHealthz))
	route("GET /readyz", "/readyz", http.HandlerFunc(s.handleReadyz))
	route("POST /edges/insert", "/edges/insert", heavy(s.readOnlyGuard(s.handleUpdate(true))))
	route("POST /edges/delete", "/edges/delete", heavy(s.readOnlyGuard(s.handleUpdate(false))))
	route("POST /edges/batch", "/edges/batch", heavy(s.readOnlyGuard(http.HandlerFunc(s.handleBatch))))
	route("POST /snapshot", "/snapshot", s.readOnlyGuard(http.HandlerFunc(s.handleSnapshot)))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// /subscribe streams: like /metrics, registered without the metrics
	// instrumentation — its buffering statusWriter cannot flush SSE frames
	// as they are written (and a long-lived stream would skew the latency
	// histograms). The timeout middleware also exempts this path.
	mux.HandleFunc("GET /subscribe", s.handleSubscribe)
	var h http.Handler = mux
	h = s.recoverMiddleware(h)
	h = s.timeoutMiddleware(h)
	if s.rate != nil {
		h = s.rateLimitMiddleware(h)
	}
	return h
}

// readOnlyGuard rejects mutating requests on a replica with the stable
// "read_only" code: a replica's state may advance only by applying the
// primary's batch stream, never by local writes (which would fork it from
// the primary permanently — there is no reconciliation).
func (s *Server) readOnlyGuard(next http.Handler) http.Handler {
	if !s.d.ReadOnly() {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusForbidden, codeReadOnly,
			"this server is a read replica; send writes to the primary")
	})
}

// snapshotResponse is the JSON body of POST /snapshot.
type snapshotResponse struct {
	Epoch uint64 `json:"epoch"`
}

// handleSnapshot triggers a durability snapshot (an admin operation: it
// checkpoints the engine and truncates the log's replay tail).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if _, durable := s.d.DurabilityStats(); !durable {
		writeError(w, http.StatusBadRequest, codeBadRequest, "snapshots require a WAL (-wal)")
		return
	}
	if err := s.d.Snapshot(); err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	writeJSON(w, snapshotResponse{Epoch: s.d.Epoch()})
}

// corenessResponse is the JSON body of /coreness. Epoch is the committed
// batch boundary the value belongs to (current epoch for the unpinned
// nonsync/blocking modes; the requested boundary for retained reads).
// Batch, like every "batch"/"batches" field, is the current committed
// epoch.
type corenessResponse struct {
	Vertex   uint32  `json:"vertex"`
	Coreness float64 `json:"coreness"`
	Mode     string  `json:"mode"`
	Batch    uint64  `json:"batch"`
	Epoch    uint64  `json:"epoch"`
}

// writeEpochError maps a requested-epoch read failure to its HTTP status:
// 410 Gone once the epoch aged out of the retention window, 404 for an
// epoch that has not committed yet.
func writeEpochError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, kcore.ErrEpochEvicted):
		writeError(w, http.StatusGone, codeEvicted, err.Error())
	case errors.Is(err, kcore.ErrFutureEpoch):
		writeError(w, http.StatusNotFound, codeFuture, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
	}
}

// uintParam extracts the optional unsigned query parameter name (nil when
// absent), answering 400 itself on a malformed value (ok reports false).
func uintParam(w http.ResponseWriter, r *http.Request, name string) (val *uint64, ok bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return nil, true
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad "+name)
		return nil, false
	}
	return &v, true
}

// orZero returns *p, or 0 for an absent (nil) epoch floor.
func orZero(p *uint64) uint64 {
	if p == nil {
		return 0
	}
	return *p
}

// epochBehindResponse is the structured 412 body of an epoch-floor read
// that timed out: the client learns how far behind the server is and can
// retry here or fall back to the primary.
type epochBehindResponse struct {
	Error    string `json:"error"`
	Code     string `json:"code"`
	Epoch    uint64 `json:"epoch"`     // server's committed epoch
	MinEpoch uint64 `json:"min_epoch"` // the requested floor
}

// awaitEpochFloor blocks until the engine's committed epoch reaches
// floor, the wait budget (WithMinEpochWait) runs out, or the client goes
// away. On timeout it answers 412 "epoch_behind" and reports false. The
// fast path — floor already committed, which is always the case on a
// primary serving a floor it issued — costs one atomic load.
func (s *Server) awaitEpochFloor(w http.ResponseWriter, r *http.Request, floor uint64) bool {
	startEpoch := s.d.Epoch()
	if floor == 0 || startEpoch >= floor {
		return true
	}
	start := time.Now()
	deadline := start.Add(s.minEpochWait)
	for s.minEpochWait > 0 {
		select {
		case <-r.Context().Done():
			return false // client gone; nothing to answer
		case <-time.After(time.Millisecond):
		}
		if s.d.Epoch() >= floor {
			return true
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	now := s.d.Epoch()
	w.Header().Set("Retry-After", retryAfterSeconds(floor, startEpoch, now, time.Since(start), s.minEpochWait))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusPreconditionFailed)
	_ = writeJSONBody(w, epochBehindResponse{
		Error:    fmt.Sprintf("committed epoch %d is behind the requested floor %d", now, floor),
		Code:     codeEpochBehind,
		Epoch:    now,
		MinEpoch: floor,
	})
	return false
}

// retryAfterSeconds derives the 412 Retry-After hint from the progress
// observed during the wait: if the engine advanced at all, extrapolate the
// remaining gap at that rate; if it made no progress (a paused feed, a
// partitioned follower), fall back to the configured wait budget — the
// soonest a retry could plausibly see a different outcome. Clamped to
// [1, 60] so a stalled replica never tells routers to hammer it or to
// give up for minutes.
func retryAfterSeconds(floor, startEpoch, nowEpoch uint64, waited, budget time.Duration) string {
	if nowEpoch >= floor {
		// The floor was crossed between the wait deadline and this call;
		// the 412 is already committed, so just tell the client to retry
		// immediately (and keep the gap arithmetic below underflow-free).
		return "1"
	}
	secs := math.Ceil(budget.Seconds())
	if nowEpoch > startEpoch && waited > 0 {
		// Floating point saturates where gap × per-epoch time would wrap
		// an int64 Duration: the gap comes from the client's min_epoch.
		secs = math.Ceil(float64(floor-nowEpoch) * waited.Seconds() / float64(nowEpoch-startEpoch))
	}
	return strconv.Itoa(int(min(max(secs, 1), 60)))
}

// serveCut is every linearizable read handler's one path to a committed
// cut. It waits for the epoch floor (see awaitEpochFloor), then runs read
// through a view: one fixed at the requested epoch and pinned for the
// duration when epoch is non-nil, so a response that starts serving cannot
// be torn by concurrent eviction; otherwise a floating view over the
// latest committed cut. It returns the epoch served, or writes the mapped
// HTTP error and reports false. When ViewAt succeeds but Pin fails with
// ErrEpochEvicted — retention disabled, where only the current epoch is
// servable — the read proceeds unpinned: fixed-view reads re-validate, and
// View.Err reports the typed error if a commit overtook them. Callers
// validate the whole request first, so a malformed one never waits.
func (s *Server) serveCut(w http.ResponseWriter, r *http.Request, floor uint64, epoch *uint64, read func(*kcore.View)) (uint64, bool) {
	if !s.awaitEpochFloor(w, r, floor) {
		return 0, false
	}
	if epoch == nil {
		view := s.d.View()
		read(view)
		return view.Epoch(), true
	}
	view, err := s.d.ViewAt(*epoch)
	if err == nil {
		if err = view.Pin(); err == nil || errors.Is(err, kcore.ErrEpochEvicted) {
			defer view.Release() // no-op when unpinned
			read(view)
			err = view.Err()
		}
	}
	if err != nil {
		writeEpochError(w, err)
		return 0, false
	}
	return *epoch, true
}

func (s *Server) handleCoreness(w http.ResponseWriter, r *http.Request) {
	v64, err := strconv.ParseUint(r.URL.Query().Get("v"), 10, 32)
	if err != nil || int(v64) >= s.d.NumVertices() {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad or out-of-range vertex id")
		return
	}
	v := uint32(v64)
	floor, ok := uintParam(w, r, "min_epoch")
	if !ok {
		return
	}
	at, ok := uintParam(w, r, "epoch")
	if !ok {
		return
	}
	mode := r.URL.Query().Get("mode")
	if at != nil && mode != "" && mode != "linearizable" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "mode is incompatible with a requested epoch")
		return
	}
	var est float64
	var epoch uint64
	switch mode {
	case "", "linearizable":
		mode = "linearizable"
		if at != nil {
			mode = "retained"
		}
		if epoch, ok = s.serveCut(w, r, orZero(floor), at, func(view *kcore.View) { est = view.Coreness(v) }); !ok {
			return
		}
	case "nonsync", "blocking":
		if !s.awaitEpochFloor(w, r, orZero(floor)) {
			return
		}
		if mode == "nonsync" {
			est = s.d.CorenessNonLinearizable(v)
		} else {
			est = s.d.CorenessBlocking(v)
		}
		epoch = s.d.Epoch()
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, "unknown mode (want linearizable, nonsync or blocking)")
		return
	}
	s.reads.Add(1)
	writeJSON(w, corenessResponse{Vertex: v, Coreness: est, Mode: mode, Batch: s.d.Epoch(), Epoch: epoch})
}

// bulkRequest is the JSON body of POST /coreness/bulk: the vertices to
// read and, optionally, the committed epoch to read them at (absent =
// latest) and/or an epoch floor the server must have reached before
// serving (see the package comment's replication section). The response
// values are epoch-pinned: all estimates belong to the single committed
// batch boundary reported in the response.
type bulkRequest struct {
	Vertices []uint32 `json:"vertices"`
	Epoch    *uint64  `json:"epoch"`
	MinEpoch *uint64  `json:"min_epoch"`
}

// bulkResponse is the JSON body of the bulk coreness endpoint. Coreness[i]
// is the estimate of Vertices[i] at Epoch.
type bulkResponse struct {
	Vertices []uint32  `json:"vertices"`
	Coreness []float64 `json:"coreness"`
	Epoch    uint64    `json:"epoch"`
}

func (s *Server) handleCorenessBulk(w http.ResponseWriter, r *http.Request) {
	// The vertex-count cap also bounds decode memory, as in /edges/batch.
	body := http.MaxBytesReader(w, r.Body, int64(s.maxBatchEdges)*16+4096)
	var req bulkRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("bulk body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad bulk JSON: %v", err))
		return
	}
	if len(req.Vertices) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty vertex list")
		return
	}
	if len(req.Vertices) > s.maxBatchEdges {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("bulk read of %d vertices exceeds limit %d", len(req.Vertices), s.maxBatchEdges))
		return
	}
	n := uint32(s.d.NumVertices())
	for _, v := range req.Vertices {
		if v >= n {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("vertex %d out of range, have %d vertices", v, n))
			return
		}
	}
	out := make([]float64, len(req.Vertices))
	epoch, ok := s.serveCut(w, r, orZero(req.MinEpoch), req.Epoch, func(view *kcore.View) { view.CorenessManyInto(req.Vertices, out) })
	if !ok {
		return
	}
	s.reads.Add(int64(len(req.Vertices)))
	writeJSON(w, bulkResponse{Vertices: req.Vertices, Coreness: out, Epoch: epoch})
}

// topResponse is the JSON body of /top. The ranking is computed over the
// single committed cut identified by Epoch.
type topResponse struct {
	K        int      `json:"k"`
	Vertices []uint32 `json:"vertices"`
	Epoch    uint64   `json:"epoch"`
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad k")
		return
	}
	floor, ok := uintParam(w, r, "min_epoch")
	if !ok {
		return
	}
	at, ok := uintParam(w, r, "epoch")
	if !ok {
		return
	}
	var top []uint32
	epoch, ok := s.serveCut(w, r, orZero(floor), at, func(view *kcore.View) { top = view.TopK(k) })
	if !ok {
		return
	}
	s.reads.Add(int64(s.d.NumVertices()))
	writeJSON(w, topResponse{K: k, Vertices: top, Epoch: epoch})
}

// statsResponse is the JSON body of /stats. ShardLoad carries the per-shard
// load breakdown (owned vertices, edges, applied batches) that shard
// rebalancing decisions are driven by. Replication is the feeder's
// counters on a primary, the follower's sync/lag state on a replica.
type statsResponse struct {
	Vertices    int                     `json:"vertices"`
	Shards      int                     `json:"shards"`
	Edges       int64                   `json:"edges"`
	Batches     uint64                  `json:"batches"`
	Epoch       uint64                  `json:"epoch"`
	Retained    int                     `json:"retained_epochs"`
	OldestEpoch uint64                  `json:"oldest_epoch"`
	Inserted    int64                   `json:"edges_inserted"`
	Deleted     int64                   `json:"edges_deleted"`
	Reads       int64                   `json:"reads_served"`
	ShardLoad   []kcore.ShardLoad       `json:"shard_load"`
	Feed        kcore.FeedStats         `json:"feed"`
	Durability  *kcore.DurabilityStats  `json:"durability,omitempty"`
	Replication *kcore.ReplicationStats `json:"replication,omitempty"`
	Overload    overloadStats           `json:"overload"`
}

// overloadStats counts requests turned away or cut off by the protection
// layer, plus panics contained by the recovery middleware.
type overloadStats struct {
	RateLimited int64 `json:"rate_limited"`
	LoadShed    int64 `json:"load_shed"`
	Timeouts    int64 `json:"timeouts"`
	Panics      int64 `json:"panics"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Vertices:    s.d.NumVertices(),
		Shards:      s.d.Shards(),
		Edges:       s.d.NumEdges(),
		Batches:     s.d.Epoch(),
		Epoch:       s.d.Epoch(),
		Retained:    s.d.RetainedEpochs(),
		OldestEpoch: s.d.OldestReadableEpoch(),
		Inserted:    s.inserted.Load(),
		Deleted:     s.deleted.Load(),
		Reads:       s.reads.Load(),
		ShardLoad:   s.d.ShardStats(),
		Feed:        s.d.FeedStats(),
		Overload: overloadStats{
			RateLimited: s.rateLimited.Load(),
			LoadShed:    s.loadShed.Load(),
			Timeouts:    s.timeouts.Load(),
			Panics:      s.panics.Load(),
		},
	}
	if st, ok := s.d.DurabilityStats(); ok {
		resp.Durability = &st
	}
	if rs, ok := s.d.ReplicationStats(); ok {
		if rs.Follower != nil {
			rs.Role = "replica" // the HTTP API's name for a follower
		}
		resp.Replication = &rs
	}
	writeJSON(w, resp)
}

// updateResponse is the JSON body of the update endpoints.
type updateResponse struct {
	Applied int    `json:"applied"`
	Batch   uint64 `json:"batch"`
}

func (s *Server) handleUpdate(insert bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Same limits as /edges/batch: bound the body before parsing so
		// the edge-count cap also bounds memory (a text edge line is well
		// under 32 bytes), then enforce the count and vertex range.
		body := http.MaxBytesReader(w, r.Body, int64(s.maxBatchEdges)*32+4096)
		edges, _, err := graph.ReadEdgeList(body)
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
					fmt.Sprintf("edge list exceeds %d bytes", tooLarge.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad edge list: %v", err))
			return
		}
		if len(edges) > s.maxBatchEdges {
			writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("batch of %d edges exceeds limit %d", len(edges), s.maxBatchEdges))
			return
		}
		n := uint32(s.d.NumVertices())
		for _, e := range edges {
			if e.U >= n || e.V >= n {
				writeError(w, http.StatusBadRequest, codeBadRequest,
					fmt.Sprintf("vertex out of range: edge (%d,%d), have %d vertices", e.U, e.V, n))
				return
			}
		}
		var applied int
		var epoch uint64
		if insert {
			applied, _, epoch = s.d.Update(toEdges(edges), nil)
			s.inserted.Add(int64(applied))
		} else {
			_, applied, epoch = s.d.Update(nil, toEdges(edges))
			s.deleted.Add(int64(applied))
		}
		writeJSON(w, updateResponse{Applied: applied, Batch: epoch})
	}
}

// batchResponse is the JSON body of the batch endpoint.
type batchResponse struct {
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	Batch    uint64 `json:"batch"`
}

// batchBodyLimit bounds a /edges/batch body, so that the edge-count limit
// also bounds memory: an edge object is well under 64 bytes of JSON.
func (s *Server) batchBodyLimit() int64 { return int64(s.maxBatchEdges)*64 + 4096 }

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	limit := s.batchBodyLimit()
	data, err := readRequestBody(r, http.MaxBytesReader(w, r.Body, limit), limit)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("batch body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("reading batch body: %v", err))
		return
	}
	b, err := decodeBatch(data, s.maxBatchEdges)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad batch JSON: %v", err))
		return
	}
	switch total := b.nIns + b.nDel; {
	case total == 0:
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty batch: need at least one edge in insert or delete")
		return
	case total > s.maxBatchEdges:
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("batch of %d edges exceeds limit %d", total, s.maxBatchEdges))
		return
	}
	n := uint32(s.d.NumVertices())
	for _, list := range [][]kcore.Edge{b.ins, b.del} {
		for _, e := range list {
			if e.U >= n || e.V >= n {
				writeError(w, http.StatusBadRequest, codeBadRequest,
					fmt.Sprintf("vertex out of range: edge (%d,%d), have %d vertices", e.U, e.V, n))
				return
			}
		}
	}
	ins, del, epoch := s.d.Update(b.ins, b.del)
	s.inserted.Add(int64(ins))
	s.deleted.Add(int64(del))
	writeJSON(w, batchResponse{Inserted: ins, Deleted: del, Batch: epoch})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = writeJSONBody(w, v)
}

// writeJSONBody encodes v to w without touching headers (the caller has
// already committed the status line).
func writeJSONBody(w http.ResponseWriter, v any) error {
	return json.NewEncoder(w).Encode(v)
}
