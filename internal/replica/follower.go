package replica

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kcore/internal/shard"
	"kcore/internal/wal"
)

// errResumeStale means the primary rejected our resume cursor (outside
// retention, minted under a previous primary incarnation's stream id, or
// a primary without resume support). The follower clears its cursor and
// immediately falls back to a full bootstrap — no backoff, the primary is
// reachable and healthy.
var errResumeStale = errors.New("replica: resume cursor outside primary retention")

// FollowerOptions configure the follower runtime.
type FollowerOptions struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// StreamTimeout is the silent-stream watchdog: a connection that
	// delivers no frame (record or heartbeat) for this long is torn down
	// and redialed (default 10s; must comfortably exceed the feeder's
	// heartbeat period).
	StreamTimeout time.Duration
	// BackoffMin/BackoffMax bound the reconnect backoff: the delay starts
	// at BackoffMin and doubles per consecutive failure up to BackoffMax
	// (defaults 100ms and 5s). A connection that reached bootstrap resets
	// the backoff.
	BackoffMin, BackoffMax time.Duration
	// InitialSync is how long StartFollower waits for the first bootstrap
	// to complete before giving up (default 30s; negative = do not wait,
	// the follower syncs in the background).
	InitialSync time.Duration
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.StreamTimeout <= 0 {
		o.StreamTimeout = 10 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.InitialSync == 0 {
		o.InitialSync = 30 * time.Second
	}
	return o
}

// FollowerStats is a point-in-time snapshot of the follower's replication
// state, served in the follower's /stats replication block and /metrics
// lag gauges.
type FollowerStats struct {
	Primary   string `json:"primary"`
	Connected bool   `json:"connected"`
	Synced    bool   `json:"synced"` // bootstrapped on the current connection

	// Epoch is the follower's applied cross-shard epoch; PrimaryEpoch is
	// the newest epoch the primary has announced on this connection
	// (records + heartbeats). LagEpochs is their difference — epochs
	// shipped but not yet applied, or accruing while disconnected.
	Epoch        uint64 `json:"epoch"`
	PrimaryEpoch uint64 `json:"primary_epoch"`
	LagEpochs    uint64 `json:"lag_epochs"`

	// BytesReceived counts stream payload bytes read; BytesApplied counts
	// the bytes of records already applied. Their difference is the lag
	// in bytes (received but not yet applied).
	BytesReceived  uint64 `json:"bytes_received"`
	BytesApplied   uint64 `json:"bytes_applied"`
	LagBytes       uint64 `json:"lag_bytes"`
	RecordsApplied uint64 `json:"records_applied"`
	// ApplyRounds equals RecordsApplied: the follower applies each record
	// under its own quiesce. Kept for /stats compatibility.
	ApplyRounds uint64 `json:"apply_rounds"`
	Bootstraps  uint64 `json:"bootstraps"`
	// Resumes counts reconnects served from the primary's retained ring —
	// no snapshot transfer, just the missed records.
	Resumes    uint64 `json:"resumes"`
	Reconnects uint64 `json:"reconnects"`
	// Errors counts the connections that ended in an error; Err shows only
	// the current one, which a later sync clears.
	Errors uint64 `json:"errors"`

	LastRecordUnixNano    int64  `json:"last_record_unix_nano,omitempty"`
	LastHeartbeatUnixNano int64  `json:"last_heartbeat_unix_nano,omitempty"`
	Err                   string `json:"error,omitempty"` // last connection error
}

// Follower replicates a primary into a local engine: it dials the
// primary's replication listener, restores the bootstrapped states, then
// applies every shipped record through the engine's normal batch path —
// the engine serves its full read stack concurrently throughout. On a
// stream failure it reconnects with exponential backoff and resumes from
// its applied commit vector when the primary's retained ring still covers
// it, falling back to a full re-bootstrap otherwise (see the package
// comment's Resume section).
type Follower struct {
	eng     *shard.Engine
	primary string // normalized base URL
	opt     FollowerOptions
	client  *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// applied is the per-shard commit vector the engine has fully applied
	// — the resume cursor. nil until the first bootstrap succeeds (a
	// fresh process has no state worth resuming from); cleared again when
	// the primary reports the cursor stale or a record misses its epoch.
	// Only the run goroutine touches it: stream() presents and advances it
	// and clears it on a missed epoch, run clears it when stale. appliedID
	// is the stream id of the primary incarnation the cursor's epochs
	// belong to (from the stream header it bootstrapped under); a resume
	// presents it so a restarted primary — whose recovered history the
	// epochs may not match — rejects the cursor instead of splicing a
	// divergent tail.
	applied   []uint64
	appliedID uint64

	connected  atomic.Bool
	synced     atomic.Bool
	primaryEp  atomic.Uint64
	bytesRecv  atomic.Uint64
	bytesAppl  atomic.Uint64
	records    atomic.Uint64
	bootstraps atomic.Uint64
	resumes    atomic.Uint64
	reconnects atomic.Uint64
	errs       atomic.Uint64
	lastRec    atomic.Int64
	lastHB     atomic.Int64
	lastErr    atomic.Pointer[error]

	firstSync chan struct{} // closed after the first successful sync
	syncOnce  sync.Once
}

// StartFollower connects eng to the primary at addr (host:port or a full
// http:// URL) and keeps it replicating until Close. Unless
// opt.InitialSync is negative it blocks until the first bootstrap has
// been applied, so a successful return means the engine already holds a
// recent primary state.
func StartFollower(eng *shard.Engine, addr string, opt FollowerOptions) (*Follower, error) {
	opt = opt.withDefaults()
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	f := &Follower{
		eng:     eng,
		primary: base,
		opt:     opt,
		// The stream is long-lived by design: liveness comes from the
		// per-frame watchdog, not a client timeout.
		client:    &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: opt.DialTimeout}},
		firstSync: make(chan struct{}),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.wg.Add(1)
	go f.run()
	if opt.InitialSync >= 0 {
		select {
		case <-f.firstSync:
		case <-time.After(opt.InitialSync):
			err := fmt.Errorf("replica: no bootstrap from %s within %v", base, opt.InitialSync)
			if last := f.Err(); last != nil {
				err = fmt.Errorf("%w (last error: %v)", err, last)
			}
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Primary returns the normalized primary base URL.
func (f *Follower) Primary() string { return f.primary }

// Epoch returns the follower engine's applied cross-shard epoch.
func (f *Follower) Epoch() uint64 { return f.eng.Epoch() }

// Synced reports whether the current connection has completed bootstrap.
func (f *Follower) Synced() bool { return f.synced.Load() }

// Err returns the last connection error (nil after a healthy [re]connect).
func (f *Follower) Err() error {
	if p := f.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats returns a point-in-time replication snapshot.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		Primary:               f.primary,
		Connected:             f.connected.Load(),
		Synced:                f.synced.Load(),
		Epoch:                 f.eng.Epoch(),
		PrimaryEpoch:          f.primaryEp.Load(),
		BytesReceived:         f.bytesRecv.Load(),
		BytesApplied:          f.bytesAppl.Load(),
		RecordsApplied:        f.records.Load(),
		ApplyRounds:           f.records.Load(),
		Bootstraps:            f.bootstraps.Load(),
		Resumes:               f.resumes.Load(),
		Reconnects:            f.reconnects.Load(),
		Errors:                f.errs.Load(),
		LastRecordUnixNano:    f.lastRec.Load(),
		LastHeartbeatUnixNano: f.lastHB.Load(),
	}
	if st.PrimaryEpoch > st.Epoch {
		st.LagEpochs = st.PrimaryEpoch - st.Epoch
	}
	if st.BytesReceived > st.BytesApplied {
		st.LagBytes = st.BytesReceived - st.BytesApplied
	}
	if err := f.Err(); err != nil {
		st.Err = err.Error()
	}
	return st
}

// Close stops replication and waits for the stream goroutine to exit. The
// engine keeps the last applied state and stays fully readable.
func (f *Follower) Close() {
	f.cancel()
	f.wg.Wait()
}

// run is the reconnect loop: one stream() per connection, exponential
// backoff between failures, reset once a connection syncs. A connection
// attempts resume whenever a cursor exists; a stale verdict falls straight
// through to a bootstrap attempt with no backoff (the primary is healthy,
// it just evicted past us).
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.opt.BackoffMin
	for {
		if f.ctx.Err() != nil {
			return
		}
		synced, err := f.stream()
		f.connected.Store(false)
		f.synced.Store(false)
		if f.ctx.Err() != nil {
			return
		}
		if errors.Is(err, errResumeStale) {
			f.applied, f.appliedID = nil, 0
			continue
		}
		if err != nil {
			e := err
			f.lastErr.Store(&e)
			f.errs.Add(1)
		}
		f.reconnects.Add(1)
		if synced {
			backoff = f.opt.BackoffMin
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > f.opt.BackoffMax {
			backoff = f.opt.BackoffMax
		}
	}
}

// stream runs one connection lifetime: dial, sync (a full bootstrap, or a
// resume from the applied cursor when one exists), then apply the live
// tail until the stream breaks, goes silent, or the follower closes. Each
// record is applied as it is read, under its own engine quiesce, and
// advances the cursor before the next frame is read. Returns whether the
// sync completed (for backoff reset).
func (f *Follower) stream() (synced bool, err error) {
	n, shards := f.eng.NumVertices(), f.eng.NumShards()
	resuming := f.applied != nil
	var req *http.Request
	if resuming {
		body := appendResumeRequest(make([]byte, 0, streamHdrLen+8*shards), n, shards, f.appliedID, f.applied)
		req, err = http.NewRequestWithContext(f.ctx, http.MethodPost, f.primary+StreamPath, bytes.NewReader(body))
	} else {
		req, err = http.NewRequestWithContext(f.ctx, http.MethodGet, f.primary+StreamPath, nil)
	}
	if err != nil {
		return false, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resuming {
			switch resp.StatusCode {
			case http.StatusMethodNotAllowed, http.StatusNotFound, http.StatusBadRequest:
				// The primary understood the POST and rejected it — a
				// pre-resume primary answers 405 (or 404), a shape mismatch
				// 400. The cursor will never be accepted; fall back to a
				// full bootstrap.
				return false, errResumeStale
			}
			// Anything else (a 503 from overload protection, a proxy 5xx)
			// is transient: keep the still-valid cursor and take the normal
			// backoff path rather than converting an overloaded primary's
			// pushback into a snapshot-transfer storm.
		}
		return false, fmt.Errorf("replica: primary returned %s", resp.Status)
	}

	// Silent-stream watchdog: tear the connection down if no frame lands
	// within StreamTimeout. Reset after every frame.
	watchdog := time.AfterFunc(f.opt.StreamTimeout, func() { resp.Body.Close() })
	defer watchdog.Stop()

	// Buffered reads keep frame parsing off raw socket syscalls. Counting
	// sits on top, so bytesRecv tracks consumed (not merely buffered)
	// stream bytes and the lag-bytes gauge stays exact.
	br := bufio.NewReaderSize(resp.Body, 256<<10)
	body := &countingReader{r: br, n: &f.bytesRecv}
	streamID, err := readStreamHeader(body, n, shards)
	if err != nil {
		return false, err
	}
	watchdog.Reset(f.opt.StreamTimeout)
	f.connected.Store(true)

	var states []wal.ShardState
	var seen []bool
	if !resuming {
		states = make([]wal.ShardState, shards)
		seen = make([]bool, shards)
	}
	vec := make([]uint64, shards)
	// markSynced is the bookkeeping both sync frames share. vec holds the
	// primary's vector at the sync point; the primary epoch is reset to
	// it, not raised, because a re-bootstrap may land on a shorter
	// history than the previous connection announced.
	markSynced := func() {
		f.primaryEp.Store(vecSum(vec))
		synced = true
		f.bytesAppl.Store(f.bytesRecv.Load())
		f.synced.Store(true)
		f.lastErr.Store(nil)
		f.syncOnce.Do(func() { close(f.firstSync) })
	}
	var buf []byte
	for {
		typ, payload, rerr := readFrame(body, buf)
		if rerr != nil {
			if f.ctx.Err() != nil {
				return synced, nil
			}
			return synced, rerr
		}
		buf = payload[:0]
		watchdog.Reset(f.opt.StreamTimeout)
		switch typ {
		case frameState:
			if resuming || synced {
				return synced, errors.New("replica: unexpected state frame")
			}
			si, st, perr := parseStateFrame(payload, n, shards)
			if perr != nil {
				return synced, perr
			}
			states[si], seen[si] = st, true
		case frameEnd:
			if resuming || synced {
				return synced, errors.New("replica: unexpected end-of-bootstrap frame")
			}
			if err := parseVector(payload, vec); err != nil {
				return synced, err
			}
			for si, ok := range seen {
				if !ok {
					return synced, fmt.Errorf("replica: bootstrap missing shard %d", si)
				}
				if states[si].Epoch != vec[si] {
					return synced, fmt.Errorf("replica: bootstrap vector %d != shard %d state epoch %d",
						vec[si], si, states[si].Epoch)
				}
			}
			if err := f.eng.RestoreAll(states); err != nil {
				return synced, fmt.Errorf("replica: applying bootstrap: %w", err)
			}
			// Free the bootstrap copies; the tail loop does not need them.
			states, seen = nil, nil
			f.applied, f.appliedID = append([]uint64(nil), vec...), streamID
			f.bootstraps.Add(1)
			markSynced()
		case frameResumeOK:
			if !resuming || synced {
				return synced, errors.New("replica: unexpected resume-ok frame")
			}
			// Payload is the primary's current vector; our engine already
			// holds the cursor state, and the records between the two
			// follow as ordinary record frames.
			if err := parseVector(payload, vec); err != nil {
				return synced, err
			}
			f.resumes.Add(1)
			markSynced()
		case frameResumeStale:
			if !resuming || synced {
				return synced, errors.New("replica: unexpected resume-stale frame")
			}
			return false, errResumeStale
		case frameRecord:
			if !synced {
				return synced, errors.New("replica: record frame before sync")
			}
			b, used, ok := wal.DecodeRecord(payload, shards)
			if !ok || used != len(payload) {
				return synced, errors.New("replica: corrupt record frame")
			}
			// Quiescing keeps the engine's snapshot/invariant surfaces
			// (which assume no concurrent apply) safe to use on a live
			// follower.
			f.eng.Quiesce(func() { f.eng.ApplyLogged(b) })
			// Every record changed its shard's graph by one epoch per
			// sub-batch, so landing elsewhere means this state is not the
			// primary's: report it and bootstrap afresh, after a backoff.
			if got := f.eng.ShardEpoch(b.Shard); got != b.Epoch {
				f.applied, f.appliedID = nil, 0
				return synced, fmt.Errorf("replica: shard %d at epoch %d after applying its record for epoch %d", b.Shard, got, b.Epoch)
			}
			f.applied[b.Shard] = b.Epoch
			f.observePrimaryVec(f.applied)
			f.records.Add(1)
			f.bytesAppl.Store(f.bytesRecv.Load())
			f.lastRec.Store(time.Now().UnixNano())
		case frameHeartbeat:
			if err := parseVector(payload, vec); err != nil {
				return synced, err
			}
			f.observePrimaryVec(vec)
			f.lastHB.Store(time.Now().UnixNano())
		default:
			return synced, fmt.Errorf("replica: unknown frame type %d", typ)
		}
	}
}

// observePrimaryVec raises the announced primary epoch to vec's sum. Within
// one connection the primary's history only grows; a new connection resets
// the value at its sync point (see markSynced).
func (f *Follower) observePrimaryVec(vec []uint64) {
	if sum := vecSum(vec); sum > f.primaryEp.Load() {
		f.primaryEp.Store(sum)
	}
}

func vecSum(vec []uint64) uint64 {
	var sum uint64
	for _, e := range vec {
		sum += e
	}
	return sum
}

// countingReader tracks received stream bytes.
type countingReader struct {
	r interface{ Read([]byte) (int, error) }
	n *atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}
