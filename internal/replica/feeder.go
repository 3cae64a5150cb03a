package replica

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kcore/internal/wal"
)

// DefaultHeartbeat is the feeder's idle-stream heartbeat period.
const DefaultHeartbeat = 500 * time.Millisecond

// FeederOptions configure the primary-side log-shipping server.
type FeederOptions struct {
	// Heartbeat is how often an idle stream sends its commit vector
	// (default 500ms). Followers treat a stream silent for several
	// heartbeats as dead, so this also bounds partition detection.
	Heartbeat time.Duration
	// Buffer is the per-follower tail buffer in batches (default
	// wal.DefaultTailBuffer). A follower that falls further behind than
	// this is disconnected; it reconnects and resumes (or re-bootstraps
	// once the ring has evicted past its cursor).
	Buffer int
	// RetainBatches sizes the retained-batch ring serving resume: a
	// follower disconnected for fewer committed batches than this
	// reconnects without a snapshot transfer. 0 means
	// wal.DefaultRetainBatches; negative disables retention (every
	// reconnect re-bootstraps, the pre-resume behavior).
	RetainBatches int
}

func (o FeederOptions) withDefaults() FeederOptions {
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	if o.Buffer <= 0 {
		o.Buffer = wal.DefaultTailBuffer
	}
	if o.RetainBatches == 0 {
		o.RetainBatches = wal.DefaultRetainBatches
	}
	return o
}

// FeederStats is a point-in-time snapshot of the feeder's counters,
// served in the primary's /stats replication block.
type FeederStats struct {
	Followers  int    `json:"followers"` // currently connected
	Connects   uint64 `json:"total_connects"`
	Bootstraps uint64 `json:"bootstraps"`
	// Resumes counts reconnects served from the retained ring (no
	// snapshot transfer); ResumeRejects counts resume requests that fell
	// outside retention and were told to re-bootstrap.
	Resumes        uint64 `json:"resumes"`
	ResumeRejects  uint64 `json:"resume_rejects"`
	RecordsShipped uint64 `json:"records_shipped"`
	BytesShipped   uint64 `json:"bytes_shipped"`
	Overruns       uint64 `json:"overruns"` // followers dropped for falling behind
	Kicks          uint64 `json:"kicks,omitempty"`
	Paused         bool   `json:"paused,omitempty"`
}

// Feeder is the primary-side replication server: each follower connection
// gets either a bootstrap (every shard's durable state captured atomically
// with the tail subscription) or — when the follower presents an applied
// commit vector still covered by the retained ring — a resume (the
// retained records after that vector spliced into the live tail), followed
// by the live record stream. The Feeder is an http.Handler; the
// integration layer owns the listener.
type Feeder struct {
	src *wal.TailSource
	opt FeederOptions
	mux *http.ServeMux

	// streamID is this primary incarnation's random identity, stamped on
	// every stream header and required to match in resume requests. The
	// retained ring's epochs only mean anything relative to the history
	// this process committed: a restarted primary may have recovered short
	// of batches it already shipped (degraded mode ships batches the disk
	// never took, and under the none/interval fsync policies a shipped
	// record may sit only in a page cache a machine crash loses) and then
	// re-committed different batches under the same epochs — a cursor from
	// the previous incarnation could pass the epoch-window check while
	// naming a divergent history. The id mismatch forces such followers
	// through a full bootstrap instead.
	streamID uint64

	// paused is the fault-injection/test hook: while set, connections
	// stop forwarding records (they keep heartbeating with the shipped
	// vector, so the link stays alive) and followers visibly lag.
	paused atomic.Bool

	// connMu guards conns, the per-connection kick channels. Kick closes
	// them all, forcing every follower through a reconnect (and therefore
	// a resume) deterministically.
	connMu sync.Mutex
	conns  map[chan struct{}]struct{}

	followers     atomic.Int64
	connects      atomic.Uint64
	bootstraps    atomic.Uint64
	resumes       atomic.Uint64
	resumeRejects atomic.Uint64
	records       atomic.Uint64
	bytes         atomic.Uint64
	overruns      atomic.Uint64
	kicks         atomic.Uint64
}

// NewFeeder returns a feeder shipping src's capture + record stream, with
// the source's retained ring sized from opt.RetainBatches.
func NewFeeder(src *wal.TailSource, opt FeederOptions) *Feeder {
	f := &Feeder{src: src, opt: opt.withDefaults(), streamID: newStreamID()}
	retain := f.opt.RetainBatches
	if retain < 0 {
		retain = 0
	}
	src.SetRetain(retain)
	f.mux = http.NewServeMux()
	f.mux.HandleFunc("GET "+StreamPath, f.handleStream)
	f.mux.HandleFunc("POST "+StreamPath, f.handleResume)
	f.mux.HandleFunc("GET "+InfoPath, f.handleInfo)
	f.mux.HandleFunc("POST "+KickPath, f.handleKick)
	return f
}

// newStreamID draws the per-boot stream identity: random, nonzero (zero
// is what a follower holds before it has ever read a header).
func newStreamID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// Handler returns the feeder's HTTP handler (StreamPath + InfoPath +
// KickPath).
func (f *Feeder) Handler() http.Handler { return f.mux }

// Pause stops record forwarding on every connection (heartbeats continue,
// so followers stay connected but lag). Test and fault-drill hook.
func (f *Feeder) Pause() { f.paused.Store(true) }

// Resume re-enables record forwarding after a Pause.
func (f *Feeder) Resume() { f.paused.Store(false) }

// Kick drops every connected follower and returns how many it dropped.
// Followers reconnect and resume from their applied vector, so this is a
// cheap way to force a deterministic reconnect cycle (smoke tests, or
// rebalancing followers across primaries).
func (f *Feeder) Kick() int {
	f.connMu.Lock()
	n := len(f.conns)
	for ch := range f.conns {
		close(ch)
	}
	f.conns = nil
	f.connMu.Unlock()
	if n > 0 {
		f.kicks.Add(uint64(n))
	}
	return n
}

func (f *Feeder) registerConn() chan struct{} {
	ch := make(chan struct{})
	f.connMu.Lock()
	if f.conns == nil {
		f.conns = make(map[chan struct{}]struct{})
	}
	f.conns[ch] = struct{}{}
	f.connMu.Unlock()
	return ch
}

func (f *Feeder) unregisterConn(ch chan struct{}) {
	f.connMu.Lock()
	delete(f.conns, ch)
	f.connMu.Unlock()
}

// Stats returns a point-in-time counter snapshot.
func (f *Feeder) Stats() FeederStats {
	return FeederStats{
		Followers:      int(f.followers.Load()),
		Connects:       f.connects.Load(),
		Bootstraps:     f.bootstraps.Load(),
		Resumes:        f.resumes.Load(),
		ResumeRejects:  f.resumeRejects.Load(),
		RecordsShipped: f.records.Load(),
		BytesShipped:   f.bytes.Load(),
		Overruns:       f.overruns.Load(),
		Kicks:          f.kicks.Load(),
		Paused:         f.paused.Load(),
	}
}

func (f *Feeder) handleInfo(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Vertices int `json:"vertices"`
		Shards   int `json:"shards"`
		FeederStats
	}{f.src.NumVertices(), f.src.NumShards(), f.Stats()})
}

func (f *Feeder) handleKick(w http.ResponseWriter, _ *http.Request) {
	n := f.Kick()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"kicked\":%d}\n", n)
}

// streamConn is one follower connection's write-side state: the counting
// writer, the shipped commit vector the heartbeats announce, and the
// per-connection scratch buffers every frame is built in (the hot paths —
// records and heartbeats — allocate nothing per frame).
type streamConn struct {
	cw      *countingWriter
	flusher http.Flusher
	kick    chan struct{}
	vec     []uint64 // last shipped epoch per shard
	frame   []byte   // record and state frame scratch
	vecBuf  []byte   // vector frame scratch (heartbeats, end-of-bootstrap)
}

// writeVectorFrame builds a vector frame ([type][len][vec]) in the
// connection's scratch buffer and ships it — no per-heartbeat allocation.
func (c *streamConn) writeVectorFrame(typ byte, vec []uint64) error {
	c.vecBuf = c.vecBuf[:0]
	c.vecBuf = append(c.vecBuf, typ)
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(8*len(vec)))
	c.vecBuf = append(c.vecBuf, l[:]...)
	c.vecBuf = appendVector(c.vecBuf, vec)
	_, err := c.cw.Write(c.vecBuf)
	return err
}

// writeRecordFrame ships one committed record — the bytes the commit
// encoded, unchanged — advancing the shipped vector.
func (c *streamConn) writeRecordFrame(f *Feeder, rec wal.Record) error {
	c.frame = appendFrame(c.frame[:0], frameRecord, rec.Frame)
	if _, err := c.cw.Write(c.frame); err != nil {
		return err
	}
	c.vec[rec.Shard] = rec.Epoch
	f.records.Add(1)
	return nil
}

// handleStream serves one follower for the lifetime of its connection:
// bootstrap, then live tail. Any write error or client disconnect ends
// the stream; the follower reconnects and resumes (or re-bootstraps).
func (f *Feeder) handleStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	states, tail, err := f.src.Bootstrap(f.opt.Buffer)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer tail.Close()
	f.connects.Add(1)
	f.followers.Add(1)
	defer f.followers.Add(-1)
	kick := f.registerConn()
	defer f.unregisterConn(kick)

	w.Header().Set("Content-Type", "application/octet-stream")
	n, shards := f.src.NumVertices(), f.src.NumShards()
	c := &streamConn{cw: &countingWriter{w: w, f: f}, flusher: flusher, kick: kick,
		vec: make([]uint64, shards)}
	if err := writeStreamHeader(c.cw, n, shards, f.streamID); err != nil {
		return
	}

	// Bootstrap: one state frame per shard, then the captured vector.
	for si, st := range states {
		var sihdr [4]byte
		binary.LittleEndian.PutUint32(sihdr[:], uint32(si))
		payload := wal.MarshalShardState(sihdr[:4:4], n, st)
		c.frame = appendFrame(c.frame[:0], frameState, payload)
		if _, err := c.cw.Write(c.frame); err != nil {
			return
		}
		c.vec[si] = st.Epoch
	}
	if err := c.writeVectorFrame(frameEnd, c.vec); err != nil {
		return
	}
	// Counted before the flush that lets the follower finish its sync, so
	// that a follower that has bootstrapped is always counted.
	f.bootstraps.Add(1)
	flusher.Flush()

	f.serveTail(r.Context(), c, tail)
}

// handleResume serves a reconnecting follower from its applied commit
// vector: when the retained ring still covers it, the response carries
// frameResumeOK, the retained records after the vector, then the live
// tail — no snapshot transfer. A cursor outside retention gets
// frameResumeStale and the follower falls back to a full bootstrap.
func (f *Feeder) handleResume(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	n, shards := f.src.NumVertices(), f.src.NumShards()
	vec := make([]uint64, shards)
	reqID, err := readResumeRequest(r.Body, n, shards, vec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var (
		replay  []wal.Record
		cur     []uint64
		tail    *wal.TailReader
		covered bool
	)
	// A cursor minted under another primary incarnation's stream id may
	// name a divergent history even when its epochs fall inside the ring's
	// window — never consult the ring for it, answer stale below.
	if reqID == f.streamID {
		replay, cur, tail, covered, err = f.src.Resume(vec, f.opt.Buffer)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	c := &streamConn{cw: &countingWriter{w: w, f: f}, flusher: flusher}
	if err := writeStreamHeader(c.cw, n, shards, f.streamID); err != nil {
		if tail != nil {
			tail.Close()
		}
		return
	}
	if !covered {
		// Foreign stream id or outside retention: tell the follower to
		// bootstrap instead.
		f.resumeRejects.Add(1)
		if c.writeVectorFrame(frameResumeStale, nil) == nil {
			flusher.Flush()
		}
		return
	}
	defer tail.Close()
	f.connects.Add(1)
	f.followers.Add(1)
	defer f.followers.Add(-1)
	c.kick = f.registerConn()
	defer f.unregisterConn(c.kick)

	// The shipped vector starts at the follower's cursor; the replay ends
	// exactly at the captured current vector (every retained batch in
	// between ships below).
	c.vec = vec
	if err := c.writeVectorFrame(frameResumeOK, cur); err != nil {
		return
	}
	// Counted before the replay can push the answer out, as bootstraps are.
	f.resumes.Add(1)
	for _, rec := range replay {
		if err := c.writeRecordFrame(f, rec); err != nil {
			return
		}
	}
	flusher.Flush()

	f.serveTail(r.Context(), c, tail)
}

// serveTail runs the live record stream on one connection until the
// client disconnects, the subscription overruns, or a kick. Records are
// flushed eagerly when the tail drains (low latency) and batched while it
// is backed up (throughput).
func (f *Feeder) serveTail(ctx context.Context, c *streamConn, tail *wal.TailReader) {
	hb := time.NewTicker(f.opt.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.kick:
			return
		case rec, open := <-tail.C():
			if !open {
				// Overrun (or source shutdown): the follower is too far
				// behind this buffer — drop the stream; it reconnects and
				// resumes if the ring still covers it.
				if tail.Overrun() {
					f.overruns.Add(1)
				}
				return
			}
			// The pause hook blocks *before* the record hits the socket,
			// so a paused feed ships nothing — the drained record is held
			// here and shipped on resume, never lost.
			if err := f.waitWhilePaused(ctx, c); err != nil {
				return
			}
			if err := c.writeRecordFrame(f, rec); err != nil {
				return
			}
			if len(tail.C()) == 0 {
				c.flusher.Flush()
			}
		case <-hb.C:
			if err := c.writeVectorFrame(frameHeartbeat, c.vec); err != nil {
				return
			}
			c.flusher.Flush()
		}
	}
}

// waitWhilePaused parks a stream while the pause hook is set, keeping the
// link alive with heartbeats (carrying the last *shipped* vector, so a
// paused feed is indistinguishable from an idle primary to the follower's
// liveness logic — only its epoch lag shows).
func (f *Feeder) waitWhilePaused(ctx context.Context, c *streamConn) error {
	for f.paused.Load() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.kick:
			return context.Canceled
		case <-time.After(f.opt.Heartbeat):
			if err := c.writeVectorFrame(frameHeartbeat, c.vec); err != nil {
				return err
			}
			c.flusher.Flush()
		}
	}
	return nil
}

// countingWriter tracks shipped bytes into the feeder's counter.
type countingWriter struct {
	w interface{ Write([]byte) (int, error) }
	f *Feeder
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if c.f != nil {
		c.f.bytes.Add(uint64(n))
	}
	return n, err
}
