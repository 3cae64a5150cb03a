// Package kcore is a dynamic parallel k-core decomposition library with
// batched updates and asynchronous, linearizable reads.
//
// It is a Go implementation of the CPLDS (concurrent parallel level data
// structure) of Liu, Shun and Zablotchi, "Parallel k-Core Decomposition
// with Batched Updates and Asynchronous Reads" (PPoPP 2024): edge updates
// are applied in parallel batches, while coreness queries proceed
// concurrently — lock-free and linearizable — with latencies independent of
// batch duration, maintaining a (2+3/λ)(1+δ)-approximation of every
// vertex's coreness (2.8 with the default parameters).
//
// # Quick start
//
//	d, _ := kcore.New(1_000_000)
//	d.InsertEdges(edges)              // parallel batch update
//	k := d.Coreness(42)               // lock-free, linearizable estimate
//
//	v := d.View()                     // epoch-pinned read handle (cheap)
//	ks := v.CorenessMany(ids)         // many vertices, one consistent cut
//	top := v.TopK(10)                 // ranking over the same kind of cut
//	fmt.Println(v.Epoch())            // the batch boundary that was served
//
//	v.Pin()                           // hold the boundary across commits
//	defer v.Release()                 //   (multi-version retained read)
//	old, _ := d.ViewAt(v.Epoch() - 2) // or fix a view at a retired epoch
//
// Single-vertex reads (Coreness) are linearizable on their own. Anything
// that combines several vertices — rankings, bulk lookups, histograms —
// should go through a View: each View read is served from one committed
// batch boundary (an epoch) instead of a torn mix of batches, and reports
// which epoch it saw. See View for the protocol.
//
// Epochs stay readable after later batches commit: the engine retains the
// WithRetainedEpochs most recent epochs' deltas (8 by default), a pinned
// View's epoch is held for as long as the pin, and reads of epochs that
// aged out fail with errors matching ErrEpochEvicted.
//
// Updates and reads may be issued from any number of goroutines at any
// time, reads including concurrently with a running batch. Concurrent
// updates apply one after another, with the same semantics at every shard
// count.
package kcore

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"kcore/internal/exact"
	"kcore/internal/feed"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/mvcc"
	"kcore/internal/parallel"
	"kcore/internal/replica"
	"kcore/internal/shard"
	"kcore/internal/wal"
)

// DefaultRetainedEpochs is the default multi-version retention depth: how
// many retired epochs stay exactly readable (ViewAt, pinned Views) behind
// the newest committed one. Override with WithRetainedEpochs.
const DefaultRetainedEpochs = mvcc.DefaultRetain

// ErrEpochEvicted is matched (via errors.Is) by every error reporting a
// read or pin of an epoch that was retired beyond the retention window —
// including all retained reads when retention is disabled
// (WithRetainedEpochs(0)). The concrete error also carries the oldest
// still-readable epoch.
var ErrEpochEvicted = mvcc.ErrEvicted

// ErrFutureEpoch is matched (via errors.Is) by every error reporting a
// read or pin of an epoch that has not committed yet.
var ErrFutureEpoch = mvcc.ErrFuture

// Edge is an undirected edge between two vertex ids in [0, NumVertices).
type Edge struct {
	U, V uint32
}

// Params are the approximation parameters of the underlying level
// structure. The approximation factor is (2+3/Lambda)(1+Delta).
type Params struct {
	Delta  float64 // group growth factor (default 0.2)
	Lambda float64 // degree-bound slack (default 9)
}

// DefaultParams returns the parameters used in the paper's evaluation
// (δ=0.2, λ=9; approximation factor 2.8).
func DefaultParams() Params {
	p := lds.DefaultParams()
	return Params{Delta: p.Delta, Lambda: p.Lambda}
}

type options struct {
	params      lds.Params
	workers     int
	shards      int
	retained    int
	walDir      string
	walOpts     WALOptions
	replListen  string
	replSource  string
	replOpts    ReplicationOptions
	feedMaxSubs int
	feedBuffer  int
}

// Option configures a Decomposition.
type Option func(*options)

// WithParams overrides the approximation parameters.
func WithParams(p Params) Option {
	return func(o *options) { o.params = lds.Params{Delta: p.Delta, Lambda: p.Lambda} }
}

// WithWorkers sets the number of goroutines used by batch updates
// (default: GOMAXPROCS). It adjusts the process-wide default used by the
// parallel runtime. n = 0 keeps the default; negative n is rejected by New.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithShards partitions the vertices across p independent CPLDS shards.
// The default, WithShards(1) (as is WithShards(0)), is one CPLDS behind a
// mutex; negative p is rejected by New.
//
// With p > 1 each update call is split into per-shard sub-batches (a cut
// edge goes to both its endpoints' shards) that the touched shards apply
// in parallel; an update means the same at every p (see ApplyBatch).
// Coreness reads stay lock-free and route directly to the vertex's owning
// shard. The estimate returned for v is then the (2+ε)-approximate
// coreness of v in its owning shard's subgraph (all edges incident to the
// shard's vertices). Because that
// subgraph's exact coreness never exceeds the global one, the estimate
// still respects the upper side of the approximation bound against v's
// global coreness, but it may undershoot the global value by more than the
// factor; run with p = 1 when the full global guarantee is required.
func WithShards(p int) Option {
	return func(o *options) { o.shards = p }
}

// WithRetainedEpochs sets the multi-version retention depth: the n most
// recent retired epochs stay exactly readable — Decomposition.ViewAt and
// pinned Views keep serving them byte-identically — even after later
// batches commit. Pinning an epoch (View.Pin) extends its retention past
// the window for as long as the pin is held.
//
// Each retained epoch costs one delta per engine instance: the (vertex,
// pre-batch level) undo records of that epoch's batch, captured at commit
// from state the update already maintains (the batch's movers and their
// pre-batch levels), so the update hot path is unchanged. n = 0 disables
// retention entirely — only the current epoch is servable and View.Pin
// fails — which is the pre-multi-version behavior; negative n is rejected
// by New. The default is DefaultRetainedEpochs.
func WithRetainedEpochs(n int) Option {
	return func(o *options) { o.retained = n }
}

// SyncPolicy selects when write-ahead-log appends are fsynced (the
// WALOptions.Sync field): SyncNone, SyncInterval or SyncAlways.
type SyncPolicy = wal.SyncPolicy

const (
	// SyncNone leaves flushing to the OS: appended batches survive a
	// process crash but a machine crash can lose the page-cache tail.
	// This is the default and the fastest policy.
	SyncNone = wal.SyncNone
	// SyncInterval fsyncs at most once per WALOptions.SyncEvery,
	// bounding machine-crash loss to that window.
	SyncInterval = wal.SyncInterval
	// SyncAlways fsyncs every batch before the update call returns:
	// full durability, at the cost of one fsync per batch.
	SyncAlways = wal.SyncAlways
)

// WALOptions tune the write-ahead log enabled by WithWAL. The zero value
// is valid: no fsync on the append path (Sync), 100ms SyncEvery, 64 MiB
// segments (SegmentBytes), manual snapshots only (SnapshotEvery), two
// in-place append retries (AppendRetries, RetryBackoff), a 5s background
// re-attach loop while degraded (ReattachEvery) and the real filesystem
// (FS, which fault-injection tests replace).
type WALOptions = wal.Options

// WithWAL makes the decomposition durable: every applied update batch is
// appended to a write-ahead log in dir, periodic snapshots bound the log's
// replay tail, and New recovers the pre-crash state from dir (newest valid
// snapshot + log tail, truncating a torn tail record) before returning.
// The directory is bound to the engine shape — vertex count and shard
// count must match across restarts.
//
// Call Decomposition.Close on shutdown to flush and release the log, and
// Decomposition.Snapshot to checkpoint manually. See WALOptions for the
// durability/throughput trade-offs.
func WithWAL(dir string, o WALOptions) Option {
	return func(opts *options) {
		opts.walDir = dir
		opts.walOpts = o
	}
}

// ReplicationOptions tune the replication transport enabled by
// WithReplicationListen (primary side) and WithReplicationSource (follower
// side). The zero value is valid and uses the defaults noted per field.
type ReplicationOptions struct {
	// Heartbeat is how often an idle primary stream sends its commit
	// vector (default 500ms). It bounds partition detection: followers
	// tear down a stream silent for StreamTimeout.
	Heartbeat time.Duration
	// TailBuffer is the per-follower live-tail buffer in batches (default
	// 4096). A follower that falls further behind is disconnected; it
	// reconnects and resumes from its applied vector (or re-bootstraps
	// once the retained ring has evicted past it).
	TailBuffer int
	// RetainBatches sizes the primary's retained-batch ring serving
	// resume: a follower disconnected for fewer committed batches than
	// this reconnects without a snapshot transfer, receiving only the
	// records it missed. 0 means the default (1024); negative disables
	// retention, restoring re-bootstrap-on-every-reconnect.
	RetainBatches int
	// DialTimeout bounds each follower connection attempt (default 5s).
	DialTimeout time.Duration
	// StreamTimeout is the follower's silent-stream watchdog (default 10s;
	// must comfortably exceed the primary's Heartbeat).
	StreamTimeout time.Duration
	// BackoffMin/BackoffMax bound the follower's reconnect backoff
	// (defaults 100ms and 5s; doubling per consecutive failure).
	BackoffMin, BackoffMax time.Duration
	// InitialSync is how long New waits for the follower's first bootstrap
	// before failing (default 30s; negative = return immediately and sync
	// in the background).
	InitialSync time.Duration
}

// WithReplicationListen makes the decomposition a replication primary: it
// serves the batch-log shipping stream on addr (host:port; ":0" picks a
// free port, see ReplicationAddr). Each connecting follower receives a
// consistent bootstrap of every shard followed by the live committed-batch
// stream, and converges to byte-identical coreness state. Composes with
// WithWAL (the log's record stream is teed) and works without it. Call
// Decomposition.Close to stop serving.
func WithReplicationListen(addr string) Option {
	return func(o *options) { o.replListen = addr }
}

// WithReplicationSource makes the decomposition a read-only follower of
// the replication primary at addr (host:port or http:// URL, as served by
// WithReplicationListen). New blocks until the first bootstrap has been
// applied (see ReplicationOptions.InitialSync), so a successful return
// means the engine already holds a recent primary state; the follower
// then keeps applying the primary's batch stream — reconnecting with
// backoff after partitions, resuming from its applied commit vector when
// the primary still retains the missed batches (RetainBatches) and
// re-bootstrapping otherwise — until Close.
//
// The follower runs the full read stack (Coreness, Views, pinned and
// retained reads); its epochs advance exactly as the primary's did, so an
// epoch observed on the primary can be awaited here (Epoch catches up).
// The mutating methods (InsertEdges, DeleteEdges, ApplyBatch,
// RemoveVertex) become no-ops returning 0 — local writes would fork the
// replica — and ReadOnly reports true. Combining with WithWAL is rejected
// by New: durability belongs to the primary; a follower restart simply
// re-bootstraps. The vertex count and shard count must match the
// primary's.
func WithReplicationSource(addr string) Option {
	return func(o *options) { o.replSource = addr }
}

// WithReplicationOptions overrides the replication transport tuning for
// either role (see ReplicationOptions).
func WithReplicationOptions(ro ReplicationOptions) Option {
	return func(o *options) { o.replOpts = ro }
}

// WithMaxSubscribers caps the number of concurrent change-feed
// subscriptions (Subscribe fails with ErrTooManySubscribers beyond it).
// 0, the default, means unlimited; negative n is rejected by New.
func WithMaxSubscribers(n int) Option {
	return func(o *options) { o.feedMaxSubs = n }
}

// WithEventBuffer sets the default per-subscription delivery buffer, in
// per-epoch deliveries (default feed.DefaultBuffer = 64). A subscriber
// that falls more than the buffer behind starts receiving gap markers
// instead of events (see Subscribe). 0 keeps the default; negative n is
// rejected by New.
func WithEventBuffer(n int) Option {
	return func(o *options) { o.feedBuffer = n }
}

// Decomposition maintains an approximate k-core decomposition of a dynamic
// undirected graph. It runs on one engine (internal/shard) for every shard
// count: one shard is a CPLDS behind a mutex, more shards add cut-edge
// mirroring.
//
// Concurrency: the update methods (InsertEdges, DeleteEdges, ApplyBatch,
// RemoveVertex) are safe for concurrent callers; each call is internally
// parallel, and concurrent calls wait for each other. Coreness,
// CorenessNonLinearizable, CorenessBlocking, View and all View reads may
// be called from any goroutine at any time.
type Decomposition struct {
	eng *shard.Engine
	wal *wal.Manager // nil without WithWAL

	// Change feed: always constructed (an idle hub costs one atomic load
	// per commit), so Subscribe works in every configuration — including
	// on a follower, whose feed is driven by the replicated batch stream.
	hub        *feed.Hub
	feedBuffer int

	// Replication (nil fields when the role is off). A primary serves the
	// feeder on its own listener; a follower runs one stream goroutine.
	feeder    *replica.Feeder
	feederSrv *http.Server
	feederLn  net.Listener
	tailSrc   *wal.TailSource // the tail when feeding without a WAL
	follower  *replica.Follower

	closeOnce sync.Once
	closeErr  error
}

// New creates an empty decomposition over n vertices. It returns an error
// for a negative vertex count, invalid approximation parameters, or
// negative WithShards/WithWorkers values.
func New(n int, opts ...Option) (*Decomposition, error) {
	o := options{params: lds.DefaultParams(), shards: 1, retained: DefaultRetainedEpochs}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.params.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("kcore: negative vertex count %d", n)
	}
	if o.shards < 0 {
		return nil, fmt.Errorf("kcore: negative shard count %d", o.shards)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("kcore: negative worker count %d", o.workers)
	}
	if o.retained < 0 {
		return nil, fmt.Errorf("kcore: negative retained-epoch count %d", o.retained)
	}
	if o.feedMaxSubs < 0 {
		return nil, fmt.Errorf("kcore: negative subscriber cap %d", o.feedMaxSubs)
	}
	if o.feedBuffer < 0 {
		return nil, fmt.Errorf("kcore: negative event buffer %d", o.feedBuffer)
	}
	if o.replListen != "" && o.replSource != "" {
		return nil, fmt.Errorf("kcore: WithReplicationListen and WithReplicationSource are mutually exclusive")
	}
	if o.replSource != "" && o.walDir != "" {
		return nil, fmt.Errorf("kcore: WithWAL on a replication follower is unsupported (durability belongs to the primary; a follower restart re-bootstraps)")
	}
	if o.workers > 0 {
		parallel.SetWorkers(o.workers)
	}
	eng := shard.New(n, o.shards, o.params)
	d := &Decomposition{eng: eng}
	if o.walDir != "" {
		// Recovery restores and replays through the engine's own restore
		// and commit paths, which keep its epoch bookkeeping in lockstep.
		m, err := wal.Open(o.walDir, eng, o.walOpts)
		if err != nil {
			return nil, fmt.Errorf("kcore: opening WAL: %w", err)
		}
		d.wal = m
	}
	eng.SetRetainedEpochs(o.retained)
	// Attach the change feed before the engine serves traffic. On a
	// follower the feed fires as replicated batches apply, so subscribers
	// see the primary's coreness churn.
	d.hub = feed.NewHub(o.feedMaxSubs)
	d.feedBuffer = o.feedBuffer
	eng.SetEventHub(d.hub)
	if o.replListen != "" {
		// Feed followers from the WAL manager's tail when there is one (the
		// record bytes the disk sees, shipped after the append), else attach
		// a tail to the engine directly.
		var tail *wal.TailSource
		if d.wal != nil {
			tail = d.wal.Tail()
		} else {
			d.tailSrc = wal.NewTailSource(eng)
			tail = d.tailSrc
		}
		d.feeder = replica.NewFeeder(tail, replica.FeederOptions{
			Heartbeat:     o.replOpts.Heartbeat,
			Buffer:        o.replOpts.TailBuffer,
			RetainBatches: o.replOpts.RetainBatches,
		})
		ln, err := net.Listen("tcp", o.replListen)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("kcore: replication listener: %w", err)
		}
		d.feederLn = ln
		d.feederSrv = &http.Server{Handler: d.feeder.Handler()}
		go d.feederSrv.Serve(ln)
	}
	if o.replSource != "" {
		fol, err := replica.StartFollower(eng, o.replSource, replica.FollowerOptions{
			DialTimeout:   o.replOpts.DialTimeout,
			StreamTimeout: o.replOpts.StreamTimeout,
			BackoffMin:    o.replOpts.BackoffMin,
			BackoffMax:    o.replOpts.BackoffMax,
			InitialSync:   o.replOpts.InitialSync,
		})
		if err != nil {
			return nil, fmt.Errorf("kcore: %w", err)
		}
		d.follower = fol
	}
	return d, nil
}

// Snapshot writes a durability snapshot: it briefly quiesces updates to
// capture the committed state, persists it (temp file + fsync + rename)
// and truncates the write-ahead log's replay tail. It requires WithWAL.
// Safe to call concurrently with updates and reads.
func (d *Decomposition) Snapshot() error {
	if d.wal == nil {
		return fmt.Errorf("kcore: Snapshot requires WithWAL")
	}
	return d.wal.Snapshot()
}

// Reattach attempts to restore durability while the write-ahead log is
// degraded (see DurabilityStats.Degraded): it snapshots the current state
// and starts a fresh, empty log, so batches applied only in memory during
// the outage become durable again. A no-op when the log is healthy; it
// requires WithWAL. Safe to call concurrently with updates and reads, and
// called automatically by the background re-attach loop
// (WALOptions.ReattachEvery).
func (d *Decomposition) Reattach() error {
	if d.wal == nil {
		return fmt.Errorf("kcore: Reattach requires WithWAL")
	}
	return d.wal.Reattach()
}

// Close shuts down the decomposition's services: it stops replicating
// (disconnecting followers when primary, detaching from the primary when
// follower) and flushes and closes the write-ahead log. The decomposition
// remains readable afterwards — a closed follower keeps serving its last
// applied state — but further updates are no longer logged or shipped.
// Close is idempotent — every call returns the first call's result — and
// safe to call concurrently with Snapshot and in-flight update batches.
func (d *Decomposition) Close() error {
	d.closeOnce.Do(func() {
		if d.follower != nil {
			d.follower.Close()
		}
		if d.feederSrv != nil {
			d.feederSrv.Close() // also closes feederLn
		}
		if d.tailSrc != nil {
			d.tailSrc.Close()
		}
		if d.wal != nil {
			d.closeErr = d.wal.Close()
		}
		if d.hub != nil {
			d.hub.Close()
		}
	})
	return d.closeErr
}

// ReadOnly reports whether this decomposition is a replication follower
// (WithReplicationSource): its state advances only by applying the
// primary's batch stream, and the local mutating methods are no-ops.
func (d *Decomposition) ReadOnly() bool { return d.follower != nil }

// ReplicationAddr returns the bound address of the replication listener
// (WithReplicationListen; useful with ":0"), or "" when not a primary.
func (d *Decomposition) ReplicationAddr() string {
	if d.feederLn == nil {
		return ""
	}
	return d.feederLn.Addr().String()
}

// FeederStats is a replication primary's counters: connected followers,
// connections accepted, bootstraps and resumes served, resume cursors
// rejected, records and bytes shipped, followers dropped for falling
// behind (overruns), and the fault-drill kick count and pause flag.
type FeederStats = replica.FeederStats

// FollowerStats is a replication follower's state: the primary it streams
// from, whether the stream is connected and synced, its applied epoch and
// the primary's announced one (and the lag between them, in epochs and in
// bytes), records applied (ApplyRounds repeats it: one quiesce per
// record), bootstraps, resumes, reconnects, the last record and heartbeat
// times, and the last connection error.
type FollowerStats = replica.FollowerStats

// ReplicationStats is a point-in-time snapshot of the replication role:
// Feeder is set on a primary (with the bound ListenAddr), Follower on a
// follower.
type ReplicationStats struct {
	Role       string         `json:"role"`                  // "primary" or "follower"
	ListenAddr string         `json:"listen_addr,omitempty"` // primary's bound replication listener
	Feeder     *FeederStats   `json:"feeder,omitempty"`
	Follower   *FollowerStats `json:"follower,omitempty"`
}

// ReplicationStats reports the replication state; ok is false when neither
// WithReplicationListen nor WithReplicationSource is configured. Safe to
// call at any time.
func (d *Decomposition) ReplicationStats() (stats ReplicationStats, ok bool) {
	switch {
	case d.feeder != nil:
		s := d.feeder.Stats()
		return ReplicationStats{Role: "primary", ListenAddr: d.ReplicationAddr(), Feeder: &s}, true
	case d.follower != nil:
		s := d.follower.Stats()
		return ReplicationStats{Role: "follower", Follower: &s}, true
	}
	return ReplicationStats{}, false
}

// DurabilityStats is a point-in-time snapshot of the write-ahead log: its
// directory, fsync policy, segments and bytes, batches logged and
// recovered, snapshot and fsync marks, append retries, and the degraded
// state (Degraded, since when, batches dropped, re-attaches, last error).
type DurabilityStats = wal.Stats

// DurabilityStats reports the write-ahead log's state; ok is false
// without WithWAL. Safe to call at any time.
func (d *Decomposition) DurabilityStats() (stats DurabilityStats, ok bool) {
	if d.wal == nil {
		return DurabilityStats{}, false
	}
	return d.wal.Stats(), true
}

// --- change feed ---

// CoreEvent is one vertex's coreness transition at one committed batch,
// as delivered by Subscribe. NewCore is exactly the value an epoch-pinned
// read at Epoch (ViewAt(Epoch)) returns for Vertex; OldCore is exactly
// the value at Epoch-1.
type CoreEvent = feed.Event

// EventFilter selects which events a subscription receives; the zero
// value matches all events. See feed.Filter for the matching rules
// (vertex set ∧ threshold crossing ∧ min delta).
type EventFilter = feed.Filter

// EventDelivery is one message on a subscription channel: either one
// committed epoch's matching events, or a gap marker for the epoch range
// [GapFrom, GapTo] the subscriber was too slow to receive. Recover from a
// gap with an epoch-pinned re-read (ViewAt) at GapTo or later.
type EventDelivery = feed.Delivery

// Subscription is a change-feed consumer handle: receive deliveries from
// C(), detach with Close.
type Subscription = feed.Subscription

// FeedStats is a snapshot of the change-feed hub's counters.
type FeedStats = feed.Stats

// ErrTooManySubscribers is returned by Subscribe when the
// WithMaxSubscribers cap is reached.
var ErrTooManySubscribers = feed.ErrTooManySubscribers

// Subscribe attaches a change-feed consumer: every committed update batch
// delivers the coreness transitions matching filter as one EventDelivery
// on the returned channel, stamped with the batch's epoch — events for
// epoch e are sent only after e is readable, so a ViewAt(e) issued on
// receipt always succeeds (subject to retention).
//
// The commit path never blocks on a subscriber: a subscription whose
// buffer (WithEventBuffer) is full receives a gap marker carrying the
// missed epoch range instead of the events; re-read the vertices of
// interest via ViewAt to resynchronize. Close the subscription when done
// — an abandoned one degrades into a stream of gaps but still consumes a
// subscriber slot.
//
// Works in every configuration, including on a replication follower
// (events fire as the primary's batches apply locally). Safe for
// concurrent callers.
func (d *Decomposition) Subscribe(filter EventFilter) (*Subscription, error) {
	return d.hub.Subscribe(filter, d.feedBuffer)
}

// FeedStats reports the change-feed hub's counters. Safe to call at any
// time.
func (d *Decomposition) FeedStats() FeedStats { return d.hub.Stats() }

// Shards returns the number of shards (1 unless WithShards was used).
func (d *Decomposition) Shards() int { return d.eng.NumShards() }

// ShardLoad is a point-in-time load snapshot of one shard — its index,
// owned vertices, primary and local (incl. mirrored cut) edges, committed
// batches and cumulative inserted/deleted edges: the observability surface
// for spotting hot shards.
type ShardLoad = shard.Stats

// ShardStats returns per-shard load statistics (one entry covering the
// whole graph with one shard). It is safe to call concurrently with updates
// and reads.
func (d *Decomposition) ShardStats() []ShardLoad { return d.eng.Stats() }

// NumVertices returns the (fixed) number of vertices.
func (d *Decomposition) NumVertices() int { return d.eng.NumVertices() }

// NumEdges returns the number of edges currently in the graph. It is safe
// to call at any time.
func (d *Decomposition) NumEdges() int64 { return d.eng.NumEdges() }

// ApproxFactor returns the theoretical approximation factor of coreness
// estimates (per shard, when sharded).
func (d *Decomposition) ApproxFactor() float64 { return d.eng.ApproxFactor() }

// Epoch returns the current committed epoch: the number of update batches
// whose effects are fully visible to readers (summed across shards, when
// sharded). The epoch advances exactly at batch boundaries, and only for a
// batch that changed the graph: an update that adds or removes no edge
// commits no epoch. Every View read reports the epoch of the cut it was
// served from. Safe to call at any time.
func (d *Decomposition) Epoch() uint64 { return d.eng.Epoch() }

// RetainedEpochs returns the configured multi-version retention depth
// (see WithRetainedEpochs; 0 = retention disabled).
func (d *Decomposition) RetainedEpochs() int { return d.eng.RetainedEpochs() }

// OldestReadableEpoch returns the oldest epoch still servable through
// ViewAt and fixed Views. With retention disabled it equals Epoch. The
// value is advisory under concurrent updates (eviction may advance it);
// pin an epoch to hold it.
func (d *Decomposition) OldestReadableEpoch() uint64 { return d.eng.OldestReadableEpoch() }

// toInternal converts public edges to the internal representation.
func toInternal(edges []Edge) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: e.U, V: e.V}
	}
	return out
}

// InsertEdges applies a batch of edge insertions in parallel and returns
// the number of edges actually added (self-loops, duplicates within the
// batch, already-present edges and out-of-range endpoints are ignored). A
// call that adds none commits no epoch and is neither logged, replicated
// nor published. Concurrent Coreness reads remain linearizable throughout
// the batch.
// On a replication follower (see ReadOnly) it is a no-op returning 0.
func (d *Decomposition) InsertEdges(edges []Edge) int {
	if d.ReadOnly() {
		return 0
	}
	return d.eng.Insert(toInternal(edges))
}

// DeleteEdges applies a batch of edge deletions in parallel and returns the
// number of edges actually removed; a call that removes none commits no
// epoch. Concurrent Coreness reads remain linearizable throughout the
// batch. On a replication follower (see ReadOnly) it is a no-op returning 0.
func (d *Decomposition) DeleteEdges(edges []Edge) int {
	if d.ReadOnly() {
		return 0
	}
	return d.eng.Delete(toInternal(edges))
}

// ApplyBatch applies a mixed batch of insertions and deletions. Following
// the paper's model, the mix is processed as an insertion sub-batch
// followed by a deletion sub-batch ("batches contain a mix of insertions
// and deletions, which are separated into insertion and deletion
// sub-batches during pre-processing", §2), so an edge in both lists is
// inserted and then deleted. It returns the number of edges inserted and
// deleted. Concurrent reads remain linearizable; each sub-batch is its own
// atomicity unit (per shard, when sharded) and commits its own epoch if it
// changed the graph (per shard, when sharded), and none otherwise. The
// semantics and the counts are the same at every shard count.
func (d *Decomposition) ApplyBatch(insertions, deletions []Edge) (inserted, deleted int) {
	inserted, deleted, _ = d.Update(insertions, deletions)
	return inserted, deleted
}

// Update is ApplyBatch that also returns the epoch committed when the call
// finished. It is read under the engine's update lock, so no concurrent
// update has moved it yet: a view at that epoch shows this call's edges
// applied, and a call that commits returns an epoch no other call returns.
// A call that changes nothing returns the epoch current at the time; on a
// replication follower it is a no-op returning that epoch.
func (d *Decomposition) Update(insertions, deletions []Edge) (inserted, deleted int, epoch uint64) {
	if d.ReadOnly() {
		return 0, 0, d.Epoch()
	}
	return d.eng.Apply(toInternal(insertions), toInternal(deletions))
}

// RemoveVertex deletes all edges incident to v as one batch, effectively
// removing v from the graph (vertex ids are never recycled). This is the
// vertex-deletion operation the paper notes batch-dynamic structures
// support via edge updates (footnote 1). It returns the number of edges
// removed. Safe for concurrent callers: no other update applies between
// collecting v's edges and deleting them. Concurrent reads stay
// linearizable throughout.
func (d *Decomposition) RemoveVertex(v uint32) int {
	if d.ReadOnly() {
		return 0
	}
	return d.eng.RemoveVertex(v)
}

// Coreness returns a linearizable (2+ε)-approximate coreness estimate for
// v. It is lock-free and safe to call concurrently with update batches:
// the returned value always corresponds to the state at a batch boundary,
// never to an intermediate state mid-batch. To learn *which* boundary — or
// to read several vertices from the same one — use a View.
func (d *Decomposition) Coreness(v uint32) float64 { return d.eng.Read(v) }

// CorenessNonLinearizable returns the estimate computed from v's
// instantaneous level. It is faster than Coreness but, when called during
// a batch, may reflect an intermediate state whose error is unbounded
// (the paper's NonSync baseline). Use only when linearizability does not
// matter.
func (d *Decomposition) CorenessNonLinearizable(v uint32) float64 {
	return d.eng.ReadNonSync(v)
}

// CorenessBlocking waits for any in-flight batch to complete before
// reading (the paper's SyncReads baseline). Its latency is bounded below
// by the remaining batch time.
func (d *Decomposition) CorenessBlocking(v uint32) float64 {
	return d.eng.ReadSync(v)
}

// Degree returns v's current degree. It must not be called concurrently
// with an update batch.
func (d *Decomposition) Degree(v uint32) int { return d.eng.Degree(v) }

// ExactCoreness computes the exact coreness of every vertex by static
// parallel peeling of the current graph (reassembled globally, when
// sharded). It is a quiescent operation: it must not be called concurrently
// with an update batch. Use it to measure the approximation quality of
// estimates, or when exact values are needed occasionally.
func (d *Decomposition) ExactCoreness() []int32 { return d.eng.ExactCoreness() }

// Check verifies the internal level-structure invariants (of every shard,
// when sharded, plus the cross-shard mirroring invariants). It is a
// quiescent operation intended for tests and debugging; it returns nil on
// a healthy structure.
func (d *Decomposition) Check() error { return d.eng.CheckInvariants() }

// Static computes the exact k-core decomposition (coreness of every
// vertex) of a static edge list on n vertices using parallel bucket
// peeling. It is the convenience entry point when no dynamic updates are
// needed.
func Static(n int, edges []Edge) []int32 {
	return exact.Parallel(graph.CSRFromEdges(n, toInternal(edges)))
}
