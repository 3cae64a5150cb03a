package server

// Hand-rolled Prometheus text exposition (no client library): fixed-bucket
// latency histograms and request/error counters per endpoint, plus engine,
// durability and replication-lag gauges rendered at scrape time. Recording
// is a handful of atomic adds per request — no locks on the request path;
// the endpoint set is fixed at route registration so the scrape path can
// iterate it without synchronization.

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds, chosen to
// straddle the paper's read-latency scale (sub-millisecond lock-free
// reads) through batch-length waits and epoch-floor stalls.
var latencyBuckets = [...]float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// endpointMetrics is one instrumented route's counters. All fields are
// atomics: observe is called concurrently from request goroutines.
type endpointMetrics struct {
	name     string
	buckets  [len(latencyBuckets) + 1]atomic.Uint64 // +Inf last
	count    atomic.Uint64
	sumNanos atomic.Uint64
	byClass  [6]atomic.Uint64 // status/100: byClass[2] = 2xx, ...
}

func (em *endpointMetrics) observe(d time.Duration, status int) {
	secs := d.Seconds()
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if secs <= latencyBuckets[i] {
			break
		}
	}
	em.buckets[i].Add(1)
	em.count.Add(1)
	em.sumNanos.Add(uint64(d.Nanoseconds()))
	if c := status / 100; c >= 1 && c <= 5 {
		em.byClass[c].Add(1)
	}
}

// metrics owns the per-endpoint slice. Endpoints are registered once, at
// route setup (before the server serves), so reads at scrape time need no
// locking.
type metrics struct {
	endpoints []*endpointMetrics
}

func newMetrics() *metrics { return &metrics{} }

// instrument wraps a route handler to record its latency and status class
// under the given endpoint name.
func (m *metrics) instrument(name string, next http.Handler) http.Handler {
	em := &endpointMetrics{name: name}
	m.endpoints = append(m.endpoints, em)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		em.observe(time.Since(start), sw.status)
	})
}

// statusWriter captures the response status for the error counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// handleMetrics renders the exposition: HTTP histograms/counters, engine
// gauges, and the durability and replication blocks when configured.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	b.WriteString("# HELP kcore_http_requests_total HTTP requests served, by endpoint and status class.\n")
	b.WriteString("# TYPE kcore_http_requests_total counter\n")
	for _, em := range s.metrics.endpoints {
		for c := 1; c <= 5; c++ {
			if n := em.byClass[c].Load(); n > 0 {
				fmt.Fprintf(&b, "kcore_http_requests_total{endpoint=%q,class=\"%dxx\"} %d\n", em.name, c, n)
			}
		}
	}
	b.WriteString("# HELP kcore_http_request_duration_seconds HTTP request latency, by endpoint.\n")
	b.WriteString("# TYPE kcore_http_request_duration_seconds histogram\n")
	for _, em := range s.metrics.endpoints {
		if em.count.Load() == 0 {
			continue
		}
		var cum uint64
		for i, le := range latencyBuckets {
			cum += em.buckets[i].Load()
			fmt.Fprintf(&b, "kcore_http_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", em.name, le, cum)
		}
		cum += em.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(&b, "kcore_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", em.name, cum)
		fmt.Fprintf(&b, "kcore_http_request_duration_seconds_sum{endpoint=%q} %g\n",
			em.name, float64(em.sumNanos.Load())/1e9)
		fmt.Fprintf(&b, "kcore_http_request_duration_seconds_count{endpoint=%q} %d\n", em.name, em.count.Load())
	}

	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	gauge("kcore_epoch", "Committed cross-shard epoch.", s.d.Epoch())
	gauge("kcore_edges", "Edges currently in the graph.", s.d.NumEdges())
	gauge("kcore_vertices", "Vertex capacity.", s.d.NumVertices())
	gauge("kcore_shards", "Engine shards.", s.d.Shards())

	fs := s.d.FeedStats()
	gauge("kcore_feed_subscribers", "Currently attached change-feed subscribers.", fs.Subscribers)
	gauge("kcore_feed_epochs_total", "Commits published to the change feed.", fs.Epochs)
	gauge("kcore_feed_events_total", "Coreness-change events offered to the feed.", fs.Events)
	gauge("kcore_feed_deliveries_total", "Per-subscriber deliveries enqueued.", fs.Deliveries)
	gauge("kcore_feed_drops_total", "Deliveries dropped at full subscriber buffers.", fs.Drops)
	gauge("kcore_feed_gaps_total", "Gap markers delivered to slow subscribers.", fs.Gaps)

	if st, ok := s.d.DurabilityStats(); ok {
		degraded := 0
		if st.Degraded {
			degraded = 1
		}
		gauge("kcore_wal_degraded", "1 while the WAL is degraded (batches apply in memory only).", degraded)
		gauge("kcore_wal_log_bytes", "Total bytes across live WAL segments.", st.LogBytes)
	}

	rs, _ := s.d.ReplicationStats()
	switch {
	case rs.Feeder != nil:
		st := rs.Feeder
		gauge("kcore_replication_followers", "Currently connected followers.", st.Followers)
		gauge("kcore_replication_bytes_shipped_total", "Stream bytes shipped to followers.", st.BytesShipped)
		gauge("kcore_replication_records_shipped_total", "Batch records shipped to followers.", st.RecordsShipped)
		gauge("kcore_replication_overruns_total", "Followers dropped for falling behind the tail buffer.", st.Overruns)
		gauge("kcore_replication_resumes_total", "Reconnects served from the retained ring (no snapshot transfer).", st.Resumes)
		gauge("kcore_replication_resume_rejects_total", "Resume cursors outside retention, told to re-bootstrap.", st.ResumeRejects)
	case rs.Follower != nil:
		st := rs.Follower
		connected := 0
		if st.Connected {
			connected = 1
		}
		gauge("kcore_replication_connected", "1 while the replication stream to the primary is up.", connected)
		gauge("kcore_replication_lag_epochs", "Epochs the primary has committed beyond this replica.", st.LagEpochs)
		gauge("kcore_replication_lag_bytes", "Stream bytes received but not yet applied.", st.LagBytes)
		gauge("kcore_replication_bytes_received_total", "Stream bytes received from the primary.", st.BytesReceived)
		gauge("kcore_replication_records_applied_total", "Batch records applied from the stream.", st.RecordsApplied)
		gauge("kcore_replication_bootstraps_total", "Bootstraps applied (more than one means re-bootstraps).", st.Bootstraps)
		gauge("kcore_replication_resumes_total", "Reconnects resumed from the applied vector (no snapshot transfer).", st.Resumes)
		gauge("kcore_replication_errors_total", "Replication connections that ended in an error.", st.Errors)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
