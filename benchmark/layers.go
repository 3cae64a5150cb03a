package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/cplds"
	"kcore/internal/faultfs"
	"kcore/internal/feed"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/mvcc"
	"kcore/internal/parallel"
	"kcore/internal/plds"
	"kcore/internal/replica"
	"kcore/internal/server"
	"kcore/internal/shard"
	"kcore/internal/wal"
)

// The traced run replays a workload's own generated inputs, in this process,
// through a stack of independent instances of every layer: each instance is
// preloaded alike and then fed the identical batches and reads through the
// layer's public functions, one span per call. An outer layer's instance does
// the inner layers' work itself, so on one request
//
//	self time(layer) = span(layer) - span(next-inner layer).
//
// Every workload replays the whole stack, including layers its end-to-end
// deployment leaves out: the figure is then what the layer would cost on
// this workload's inputs.

const (
	traceBatchCap = 40   // batches replayed: a quarter of the stream, at most this
	traceReads    = 2000 // bulk reads replayed per read span name
	traceTopK     = 20   // kcore.topk calls (each reads every vertex)
)

// layerMetric is one declared per-layer metric.
type layerMetric struct{ name, unit string }

// layerMetrics is the list BENCHMARK.json's per_layer repeats; every traced
// run reports every entry.
var layerMetrics = []layerMetric{
	{"graph.merge_us_per_batch", "us"}, {"graph.snapshot_ms", "ms"},
	{"plds.batch_self_us", "us"}, {"plds.ns_per_edge_insert", "ns"}, {"plds.ns_per_edge_delete", "ns"},
	{"cplds.batch_self_us", "us"}, {"cplds.movers_per_batch", "count"},
	{"cplds.read_ns", "ns"}, {"cplds.read_busy_ns", "ns"}, {"cplds.read_retries_per_kread", "count"},
	{"kcore.apply_self_us", "us"}, {"kcore.view_many_ns", "ns"}, {"kcore.topk_us", "us"},
	{"shard.apply_self_us", "us"}, {"shard.mirror_ratio", "ratio"},
	{"shard.read_many_ns", "ns"}, {"shard.read_at_ns", "ns"},
	{"mvcc.append_us_per_batch", "us"}, {"mvcc.delta_records_per_epoch", "count"},
	{"mvcc.overlay_ns_d1", "ns"}, {"mvcc.overlay_ns_d8", "ns"},
	{"feed.publish_us_per_epoch", "us"}, {"feed.events_per_epoch", "count"},
	{"feed.drops_total", "count"}, {"feed.gaps_total", "count"},
	{"wal.encode_ns_per_edge", "ns"}, {"wal.decode_ns_per_edge", "ns"},
	{"wal.append_us_per_batch", "us"}, {"wal.bytes_per_edge", "B"}, {"wal.fsync_count", "count"},
	{"wal.snapshot_ms", "ms"}, {"wal.recover_ms", "ms"}, {"wal.replay_edges_per_s", "1/s"},
	{"replica.apply_us_per_record", "us"}, {"replica.recs_per_round", "ratio"},
	{"replica.lag_epochs_max", "count"}, {"replica.bytes_per_edge", "B"},
	{"replica.bootstrap_ms", "ms"}, {"replica.visible_us_p50", "us"},
	{"server.decode_us_per_batch", "us"}, {"server.batch_ms_p90", "ms"},
	{"server.read_overhead_us", "us"}, {"server.http_overhead_us", "us"}, {"server.shed_total", "count"},
	{"trace.batch_ms_p50", "ms"}, {"trace.read_us_p50", "us"},
}

// traceShape is the engine configuration of a workload's deployment.
type traceShape struct {
	shards, retain, k, batches int
	subscriber                 bool // an SSE subscriber is attached (cross_k filter)
	inProcess                  bool // the workload calls the library, not the server
	durable                    bool // the deployment runs with a WAL
}

func shapeOf(name string, z sizing) traceShape {
	quarter := func(perS float64) int { return min(max(z.count(perS)/4, 1), traceBatchCap) }
	switch name {
	case wLib:
		return traceShape{shards: 1, retain: z.LibRetain, k: z.LibBatchEdges, batches: quarter(z.LibBatchesPerS), inProcess: true}
	case wIngest:
		return traceShape{shards: 1, retain: server.DefaultRetainedEpochs, k: z.IngestBatchEdges, batches: quarter(z.IngestBatchesPerS), durable: true}
	case wReplica:
		return traceShape{shards: 2, retain: server.DefaultRetainedEpochs, k: z.ReplicaBatchEdges, batches: quarter(z.ReplicaBatchesPerS)}
	default:
		return traceShape{shards: 2, retain: z.FeedRetain, k: z.FeedBatchEdges, batches: quarter(z.FeedBatchesPerS), subscriber: true}
	}
}

// recorder is the plds.Tracker of the bare PLDS instances: it keeps each
// batch's movers and their pre-batch levels, which are the inputs of the
// mvcc and feed layers.
type recorder struct {
	movers []uint32
	old    []int32
	n      atomic.Int64
}

func newRecorder(n int) *recorder {
	return &recorder{movers: make([]uint32, n), old: make([]int32, n)}
}

func (r *recorder) BatchStart(plds.Kind, []graph.Edge) { r.n.Store(0) }
func (r *recorder) BatchEnd(plds.Kind)                 {}
func (r *recorder) VertexMoving(v uint32, oldLevel int32, _ plds.Kind) {
	i := r.n.Add(1) - 1
	r.movers[i], r.old[i] = v, oldLevel
}

// spanHandler records a span around the server's whole handler chain and
// hands it to the (single, sequential) client of the test server.
type spanHandler struct {
	h     http.Handler
	spans chan [2]time.Time // buffered: one request is in flight at a time
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.h.ServeHTTP(w, r)
	if r.URL.Path != "/subscribe" {
		s.spans <- [2]time.Time{start, time.Now()}
	}
}

// stack is one instance of every layer.
type stack struct {
	sh     traceShape
	n      int
	params lds.Params
	owner  func(v uint32) int

	graphs  []*graph.Dynamic
	pldss   []*plds.PLDS
	recs    []*recorder
	cpldss  []*cplds.CPLDS
	stores  []*mvcc.Store
	mvEpoch []uint64
	oldOf   []int32 // scratch: pre-batch level by vertex, for mvcc.Append

	hub      *feed.Hub // standalone feed layer
	hubEpoch uint64
	drained  sync.WaitGroup

	eng    *shard.Engine
	engHub *feed.Hub
	dec    *kcore.Decomposition
	decWal *kcore.Decomposition
	walDir string
	walFS  *faultfs.Injector

	srv     *server.Server
	handler *spanHandler
	ts      *httptest.Server
	sse     *subscription

	primary   *shard.Engine
	tail      *wal.TailSource
	feeder    *replica.Feeder
	feederSrv *http.Server
	follower  *replica.Follower
	folEng    *shard.Engine
	applyEng  *shard.Engine // target of direct Quiesce+ApplyLogged

	bootstrap time.Duration
}

// route splits edges into the per-shard sub-batches the sharded engine
// forms: an edge goes to the shard owning either endpoint.
func (s *stack) route(edges []graph.Edge) [][]graph.Edge {
	if s.sh.shards == 1 {
		return [][]graph.Edge{edges}
	}
	out := make([][]graph.Edge, s.sh.shards)
	for _, e := range edges {
		su, sv := s.owner(e.U), s.owner(e.V)
		out[su] = append(out[su], e)
		if sv != su {
			out[sv] = append(out[sv], e)
		}
	}
	return out
}

func (s *stack) walOptions() kcore.Option {
	return kcore.WithWAL(s.walDir, kcore.WALOptions{Sync: kcore.SyncInterval, FS: s.walFS})
}

func (s *stack) newDecomposition(opts ...kcore.Option) (*kcore.Decomposition, error) {
	opts = append([]kcore.Option{kcore.WithShards(s.sh.shards), kcore.WithRetainedEpochs(s.sh.retain)}, opts...)
	return kcore.New(s.n, opts...)
}

// drain consumes a subscription so that it never overflows into gaps.
func (s *stack) drain(sub *feed.Subscription) {
	s.drained.Add(1)
	go func() {
		defer s.drained.Done()
		for range sub.C() {
		}
	}()
}

// build constructs and preloads every instance. Preloads run two at a time:
// the engines use one worker each here.
func buildStack(e *env, in *inputs, sh traceShape, dir string) (*stack, error) {
	z := in.z
	s := &stack{sh: sh, n: z.Vertices, params: lds.DefaultParams(), walDir: filepath.Join(dir, "wal"), walFS: faultfs.New(nil)}
	chunks := in.preload()
	newEngine := func() *shard.Engine { return shard.New(s.n, sh.shards, s.params) }
	s.eng = newEngine()
	s.owner = s.eng.ShardOf
	filter := feed.Filter{CrossK: float64(z.FeedCrossK)}

	var builders []func() error
	engine := func(dst **shard.Engine, configure func(*shard.Engine) error) {
		builders = append(builders, func() error {
			eng := *dst
			if eng == nil {
				eng = newEngine()
				*dst = eng
			}
			for _, c := range chunks {
				eng.Insert(c)
			}
			if configure != nil {
				return configure(eng)
			}
			return nil
		})
	}
	engine(&s.eng, func(eng *shard.Engine) error {
		eng.SetRetainedEpochs(sh.retain)
		s.engHub = feed.NewHub(0)
		eng.SetEventHub(s.engHub)
		if sh.subscriber {
			sub, err := s.engHub.Subscribe(filter, 0)
			if err != nil {
				return err
			}
			s.drain(sub)
		}
		return nil
	})
	engine(&s.applyEng, nil)
	engine(&s.primary, nil)
	decomposition := func(dst **kcore.Decomposition, opts ...kcore.Option) {
		builders = append(builders, func() error {
			d, err := s.newDecomposition(opts...)
			if err != nil {
				return err
			}
			*dst = d
			for _, c := range chunks {
				d.InsertEdges(toPublic(c))
			}
			return nil
		})
	}
	decomposition(&s.dec)
	decomposition(&s.decWal, s.walOptions())
	builders = append(builders, func() error {
		srv, err := server.New(s.n, s.params, server.WithShards(sh.shards), server.WithRetainedEpochs(sh.retain))
		if err != nil {
			return err
		}
		s.srv = srv
		for _, c := range chunks {
			srv.InsertBatch(c)
		}
		return nil
	})
	builders = append(builders, func() error {
		for si := 0; si < sh.shards; si++ {
			rec := newRecorder(s.n)
			s.graphs = append(s.graphs, graph.NewDynamic(s.n))
			s.recs = append(s.recs, rec)
			s.pldss = append(s.pldss, plds.New(s.n, s.params, rec))
			s.cpldss = append(s.cpldss, cplds.New(s.n, s.params))
			s.stores = append(s.stores, mvcc.NewStore(sh.retain))
		}
		for _, c := range chunks {
			for si, part := range s.route(c) {
				s.graphs[si].InsertEdges(part)
				s.pldss[si].InsertBatch(part)
				s.cpldss[si].InsertBatch(part)
			}
		}
		for si := range s.pldss {
			s.mvEpoch = append(s.mvEpoch, s.pldss[si].Epoch())
		}
		return nil
	})

	errs := make([]error, len(builders))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2) // two cores
	for i, b := range builders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = b()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	s.oldOf = make([]int32, s.n)

	// Standalone feed layer: one filtering subscriber, as /subscribe?cross_k.
	s.hub = feed.NewHub(0)
	sub, err := s.hub.Subscribe(filter, 0)
	if err != nil {
		s.close()
		return nil, err
	}
	s.drain(sub)

	// The server behind real loopback HTTP, its handler chain wrapped in a span.
	s.handler = &spanHandler{h: s.srv.Handler(), spans: make(chan [2]time.Time, 1)}
	s.ts = httptest.NewServer(s.handler)
	if sh.subscriber {
		if s.sse, err = subscribe(s.ts.Listener.Addr().String(), fmt.Sprintf("cross_k=%d", z.FeedCrossK)); err != nil {
			s.close()
			return nil, err
		}
	}

	// Loopback replication pair: the follower bootstraps from the preloaded
	// primary over TCP.
	s.tail = wal.NewTailSource(s.primary)
	s.feeder = replica.NewFeeder(s.tail, replica.FeederOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.feederSrv = &http.Server{Handler: s.feeder.Handler()}
	go s.feederSrv.Serve(ln) // ends with ErrServerClosed at close
	s.folEng = newEngine()
	t0 := time.Now()
	s.follower, err = replica.StartFollower(s.folEng, ln.Addr().String(), replica.FollowerOptions{})
	s.bootstrap = time.Since(t0)
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	if s.sse != nil {
		s.sse.close()
	}
	if s.ts != nil {
		s.ts.Close()
	}
	if s.follower != nil {
		s.follower.Close()
	}
	if s.feederSrv != nil {
		s.feederSrv.Close()
	}
	if s.tail != nil {
		s.tail.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, d := range []*kcore.Decomposition{s.dec, s.decWal} {
		if d != nil {
			d.Close()
		}
	}
	for _, h := range []*feed.Hub{s.hub, s.engHub} {
		if h != nil {
			h.Close()
		}
	}
	s.drained.Wait()
}

// post sends one request to the traced server and records the client span
// and, below it, the handler span.
func (s *stack) post(t *tracer, name string, req int, path string, body []byte, out any) (int, error) {
	var err error
	client := t.call("client."+name, -1, req, func() {
		var resp *http.Response
		resp, err = http.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var data []byte
		data, err = io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, data)
		}
		if err == nil && out != nil {
			err = json.Unmarshal(data, out)
		}
	})
	if err != nil {
		return -1, err
	}
	hs := <-s.handler.spans
	return t.record("server."+name, client, req, hs[0], hs[1]), nil
}

// runTraced is the -trace 1 run of one workload.
func runTraced(e *env, name string, in *inputs, seed int64) (*result, error) {
	z := in.z
	sh := shapeOf(name, z)
	r := newResult(name, seed)
	r.Traced = true
	r.Counts["batches"] = int64(sh.batches)
	r.Counts["edge_ops"] = int64(sh.batches) * int64(2*sh.k)

	// One worker per engine: parallel sub-steps would make an outer span
	// shorter than the sum of its inner ones.
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)

	dir, err := e.tempDir("trace-" + name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := buildStack(e, in, sh, dir)
	if err != nil {
		return nil, err
	}
	defer s.close()
	t := newTracer()
	lm := map[string]float64{}

	// The log starts at a snapshot of the preloaded state, so that recovery
	// at the end is snapshot load plus replay of exactly the traced stream.
	t.call("wal.snapshot", -1, 0, func() { err = s.decWal.Snapshot() })
	if err != nil {
		return nil, err
	}
	walStart, _ := s.decWal.DurabilityStats()
	syncsStart := s.walFS.Counters().Syncs
	shippedStart := s.feeder.Stats().BytesShipped

	var (
		body                    []byte
		frame                   []byte
		routedEdges, batchEdges int
		movers, epochs          int
		records                 int
		lagMax                  uint64
		busyTotal               time.Duration
		busyReads               int
		retriesStart            = s.primary.LocalCPLDS(0).ReadRetries()
	)
	for i := 0; i < sh.batches; i++ {
		ins, del := in.batch(i, sh.k)
		batchEdges += len(ins) + len(del)

		// Outermost first, so that each span can name its parent.
		body = appendBatchJSON(body[:0], ins, del)
		var rep batchReply
		srvSpan, err := s.post(t, "batch", i, "/edges/batch", body, &rep)
		if err != nil {
			return nil, err
		}
		if rep.Inserted != len(ins) || rep.Deleted != len(del) {
			return nil, fmt.Errorf("traced server applied %d+%d of %d+%d edges", rep.Inserted, rep.Deleted, len(ins), len(del))
		}
		pi, pd := toPublic(ins), toPublic(del)
		walSpan := t.call("kcore.apply_wal", -1, i, func() { s.decWal.ApplyBatch(pi, pd) })
		t.call("kcore.apply", walSpan, i, func() { s.dec.ApplyBatch(pi, pd) })
		engSpan := t.call("shard.apply", srvSpan, i, func() { s.eng.Apply(ins, del) })

		// Replication pair over TCP. A reader hammers shard 0 of the primary
		// while its batch runs (the read protocol's cost while descriptors
		// are live); it runs here because this apply feeds no self time.
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			busy := s.primary.LocalCPLDS(0)
			for j := 0; !stop.Load(); j++ {
				v := in.ids[j%len(in.ids)]
				if s.owner(v) != 0 {
					continue
				}
				t0 := time.Now()
				busy.Read(v)
				busyTotal += time.Since(t0)
				busyReads++
			}
		}()
		t.call("replica.primary_apply", -1, i, func() { s.primary.Apply(ins, del) })
		stop.Store(true)
		<-done
		lagMax = max(lagMax, s.follower.Stats().LagEpochs)
		t.call("replica.ship_apply", -1, i, func() {
			for target := s.primary.Epoch(); s.folEng.Epoch() < target; {
				runtime.Gosched()
			}
		})

		rIns, rDel := s.route(ins), s.route(del)
		var slowest time.Duration
		var slowestParts map[string]time.Duration
		for si := 0; si < sh.shards; si++ {
			routedEdges += len(rIns[si]) + len(rDel[si])
			c := s.cpldss[si]

			parts := map[string]time.Duration{}
			timed := func(name string, parent int, f func()) int {
				idx := t.call(name, parent, i, f)
				parts[name] += t.last
				return idx
			}
			cSpan := timed("cplds.batch", engSpan, func() {
				c.InsertBatch(rIns[si])
				c.DeleteBatch(rDel[si])
			})

			rec := wal.Batch{Shard: si, Epoch: c.Epoch(), Ins: rIns[si], Del: rDel[si], HasIns: true, HasDel: true}
			t.call("replica.apply", -1, i, func() { s.applyEng.Quiesce(func() { s.applyEng.ApplyLogged(rec) }) })
			t.call("wal.encode", -1, i, func() { frame = wal.EncodeRecord(frame[:0], rec) })
			var ok bool
			t.call("wal.decode", -1, i, func() { _, _, ok = wal.DecodeRecord(frame, sh.shards) })
			if !ok {
				return nil, fmt.Errorf("wal record of batch %d does not decode", i)
			}
			records++

			p, g := s.pldss[si], s.graphs[si]
			for phase, edges := range [][]graph.Edge{rIns[si], rDel[si]} {
				pName, gName := "plds.insert", "graph.insert"
				if phase == 1 {
					pName, gName = "plds.delete", "graph.delete"
				}
				pSpan := timed(pName, cSpan, func() {
					if phase == 0 {
						p.InsertBatch(edges)
					} else {
						p.DeleteBatch(edges)
					}
				})
				timed(gName, pSpan, func() {
					if phase == 0 {
						g.InsertEdges(edges)
					} else {
						g.DeleteEdges(edges)
					}
				})

				// This phase committed one epoch: its movers are what mvcc
				// captures and what the feed publishes.
				recd := s.recs[si]
				moved := recd.movers[:recd.n.Load()]
				for j, v := range moved {
					s.oldOf[v] = recd.old[j]
				}
				movers += len(moved)
				epochs++
				s.mvEpoch[si]++
				timed("mvcc.append", cSpan, func() {
					s.stores[si].Append(s.mvEpoch[si], moved, func(v uint32) int32 { return s.oldOf[v] })
				})
				events := make([]feed.Event, 0, len(moved))
				s.hubEpoch++
				for _, v := range moved {
					if was, now := s.oldOf[v], p.Level(v); was != now {
						events = append(events, feed.Event{Epoch: s.hubEpoch, Vertex: v,
							OldCore: p.S.EstimateFromLevel(was), NewCore: p.S.EstimateFromLevel(now)})
					}
				}
				timed("feed.publish", cSpan, func() { s.hub.Publish(s.hubEpoch, events) })
			}
			// The engine applies its shards side by side: the slowest one is
			// what the batch waits for.
			if own := parts["cplds.batch"] + parts["mvcc.append"] + parts["feed.publish"]; si == 0 || own > slowest {
				slowest, slowestParts = own, parts
			}
		}
		for name, d := range slowestParts {
			addAt(t.crit, name, i, d)
		}
	}
	retries := s.primary.LocalCPLDS(0).ReadRetries() - retriesStart

	// Reads, each through every layer from the outside in.
	out := make([]float64, z.ReadIDs)
	levels := make([]int32, z.ReadIDs)
	depth := uint64(min(z.FeedDepth, sh.retain))
	var bulk bulkReply
	for j := 0; j < traceReads; j++ {
		ids := in.readSets[j%readSetCount]
		body = appendBulkJSON(body[:0], ids, -1, -1)
		srvSpan, err := s.post(t, "bulk", j, "/coreness/bulk", body, &bulk)
		if err != nil {
			return nil, err
		}
		view := s.dec.View()
		t.call("kcore.view_many", -1, j, func() { view.CorenessManyInto(ids, out) })
		engSpan := t.call("shard.read_many", srvSpan, j, func() { s.eng.ReadManyPinned(ids, out) })
		// What the engine itself calls: one pinned multi-read on a single
		// shard, a linearizable read per vertex across several.
		t.call("cplds.read", engSpan, j, func() {
			if sh.shards == 1 {
				s.cpldss[0].ReadManyPinned(ids, out)
				return
			}
			for _, v := range ids {
				s.cpldss[s.owner(v)].Read(v)
			}
		})

		at := s.eng.Epoch() - depth
		body = appendBulkJSON(body[:0], ids, int64(at), -1)
		srvSpan, err = s.post(t, "bulk_at", j, "/coreness/bulk", body, &bulk)
		if err != nil {
			return nil, err
		}
		var readErr error
		engSpan = t.call("shard.read_at", srvSpan, j, func() { readErr = s.eng.ReadManyAt(ids, out, at) })
		if readErr != nil {
			return nil, fmt.Errorf("retired read %d epochs back: %w", depth, readErr)
		}
		cur := s.mvEpoch[0]
		t.call("mvcc.overlay_d1", engSpan, j, func() { readErr = s.stores[0].OverlayMany(cur-1, cur, ids, levels) })
		if readErr == nil {
			t.call("mvcc.overlay_d8", engSpan, j, func() { readErr = s.stores[0].OverlayMany(cur-depth, cur, ids, levels) })
		}
		if readErr != nil {
			return nil, fmt.Errorf("mvcc overlay: %w", readErr)
		}
	}
	for j := 0; j < traceTopK; j++ {
		view := s.dec.View()
		t.call("kcore.topk", -1, j, func() { view.TopK(10) })
	}
	for j := 0; j < 5; j++ {
		t.call("graph.snapshot", -1, j, func() { s.graphs[0].Snapshot() })
	}

	// Durability counters, then crash recovery of the logged instance.
	walEnd, _ := s.decWal.DurabilityStats()
	lm["wal.bytes_per_edge"] = float64(walEnd.LogBytes-walStart.LogBytes) / float64(batchEdges)
	lm["wal.fsync_count"] = float64(s.walFS.Counters().Syncs - syncsStart)
	wantEpoch := s.decWal.Epoch()
	if err := s.decWal.Close(); err != nil {
		return nil, err
	}
	var recovered *kcore.Decomposition
	t.call("wal.recover", -1, 0, func() { recovered, err = s.newDecomposition(s.walOptions()) })
	if err != nil {
		return nil, fmt.Errorf("recovering the traced WAL: %w", err)
	}
	s.decWal = recovered
	if recovered.Epoch() != wantEpoch {
		return nil, fmt.Errorf("traced WAL recovered epoch %d, want %d", recovered.Epoch(), wantEpoch)
	}

	var st statsReply
	if resp, err := http.Get(s.ts.URL + "/stats"); err != nil {
		return nil, err
	} else {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		<-s.handler.spans
		if err != nil {
			return nil, err
		}
	}
	fst := s.follower.Stats()
	hst := s.hub.Stats()

	nsOf := func(d time.Duration) float64 { return float64(d) }
	nb := float64(sh.batches)
	lm["graph.merge_us_per_batch"] = us(t.total["graph.insert"]+t.total["graph.delete"]) / nb
	lm["graph.snapshot_ms"] = ms(t.med("graph.snapshot"))
	lm["plds.batch_self_us"] = us(t.self("plds.insert", "graph.insert") + t.self("plds.delete", "graph.delete"))
	lm["plds.ns_per_edge_insert"] = 2 * float64(t.total["plds.insert"]) / float64(routedEdges)
	lm["plds.ns_per_edge_delete"] = 2 * float64(t.total["plds.delete"]) / float64(routedEdges)
	lm["cplds.batch_self_us"] = us(t.self("cplds.batch", "plds.insert", "plds.delete"))
	lm["cplds.movers_per_batch"] = float64(movers) / nb
	lm["cplds.read_ns"] = float64(t.total["cplds.read"]) / float64(t.calls["cplds.read"]*z.ReadIDs)
	if busyReads > 0 {
		lm["cplds.read_busy_ns"] = float64(busyTotal) / float64(busyReads)
		lm["cplds.read_retries_per_kread"] = 1000 * float64(retries) / float64(busyReads)
	}
	lm["kcore.apply_self_us"] = us(t.self("kcore.apply", "cplds.batch", "mvcc.append"))
	lm["kcore.view_many_ns"] = nsOf(t.mean("kcore.view_many"))
	lm["kcore.topk_us"] = us(t.med("kcore.topk"))
	inner := []string{"cplds.batch", "mvcc.append"}
	if sh.subscriber {
		inner = append(inner, "feed.publish")
	}
	lm["shard.apply_self_us"] = us(t.self("shard.apply", inner...))
	lm["shard.mirror_ratio"] = float64(routedEdges) / float64(batchEdges)
	lm["shard.read_many_ns"] = nsOf(t.mean("shard.read_many"))
	lm["shard.read_at_ns"] = nsOf(t.mean("shard.read_at"))
	lm["mvcc.append_us_per_batch"] = us(t.total["mvcc.append"]) / nb
	lm["mvcc.delta_records_per_epoch"] = float64(movers) / float64(epochs)
	lm["mvcc.overlay_ns_d1"] = nsOf(t.mean("mvcc.overlay_d1"))
	lm["mvcc.overlay_ns_d8"] = nsOf(t.mean("mvcc.overlay_d8"))
	lm["feed.publish_us_per_epoch"] = us(t.mean("feed.publish"))
	lm["feed.events_per_epoch"] = float64(hst.Events) / float64(max(hst.Epochs, 1))
	lm["feed.drops_total"] = float64(hst.Drops)
	lm["feed.gaps_total"] = float64(hst.Gaps)
	lm["wal.encode_ns_per_edge"] = nsOf(t.total["wal.encode"]) / float64(routedEdges)
	lm["wal.decode_ns_per_edge"] = nsOf(t.total["wal.decode"]) / float64(routedEdges)
	lm["wal.append_us_per_batch"] = us(t.self("kcore.apply_wal", "kcore.apply"))
	lm["wal.snapshot_ms"] = ms(t.med("wal.snapshot"))
	lm["wal.recover_ms"] = ms(t.med("wal.recover"))
	lm["wal.replay_edges_per_s"] = float64(batchEdges) / t.med("wal.recover").Seconds()
	lm["replica.apply_us_per_record"] = us(t.mean("replica.apply"))
	lm["replica.recs_per_round"] = float64(fst.RecordsApplied) / float64(max(fst.ApplyRounds, 1))
	lm["replica.lag_epochs_max"] = float64(lagMax)
	lm["replica.bytes_per_edge"] = float64(s.feeder.Stats().BytesShipped-shippedStart) / float64(batchEdges)
	lm["replica.bootstrap_ms"] = ms(s.bootstrap)
	lm["replica.visible_us_p50"] = us(t.med("replica.ship_apply"))
	lm["server.decode_us_per_batch"] = us(t.self("server.batch", "shard.apply"))
	p90, _ := samples(t.perReq["server.batch"]).sorted().percentile(90)
	lm["server.batch_ms_p90"] = ms(p90)
	lm["server.read_overhead_us"] = us(t.self("server.bulk", "shard.read_many"))
	lm["server.http_overhead_us"] = us(t.self("client.bulk", "server.bulk"))
	lm["server.shed_total"] = float64(st.Overload.LoadShed + st.Overload.RateLimited + st.Overload.Timeouts)
	// The end-to-end headline figures again, under tracing: the difference to
	// the untraced run is tracing overhead plus the process boundary.
	if sh.inProcess {
		lm["trace.batch_ms_p50"] = ms(t.med("kcore.apply"))
		lm["trace.read_us_p50"] = us(t.med("kcore.view_many"))
	} else {
		lm["trace.batch_ms_p50"] = ms(t.med("client.batch"))
		lm["trace.read_us_p50"] = us(t.med("client.bulk"))
	}

	for _, m := range layerMetrics {
		r.Metrics[m.name] = metric{Value: lm[m.name], Unit: m.unit}
	}
	r.Attempted = int64(t.calls["client.batch"] + t.calls["client.bulk"] + t.calls["client.bulk_at"])
	r.Counts["records"] = int64(records)
	r.Counts["spans_kept"] = int64(len(t.spans))
	r.Shares = layerShares(t, sh, lm)
	path, err := t.write(e, name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s (%d spans)\n", path, len(t.spans))
	return r, nil
}

// share is one row of the ranked table: a layer's self time on a workload's
// update batch or read, and its share of the layers that are on the
// workload's own end-to-end path.
type share struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us"`
	Pct    float64 `json:"pct"`     // of the on-path total; 0 when off the path
	OnPath bool    `json:"on_path"` // the workload's deployment runs this layer
}

// layerShares ranks the layers by self time, for the update batch and for
// the workload's reads; lm holds the self-time metrics already computed.
func layerShares(t *tracer, sh traceShape, lm map[string]float64) map[string][]share {
	svc := !sh.inProcess
	rank := func(rows []share) []share {
		var total float64
		for _, r := range rows {
			if r.OnPath {
				total += r.SelfUs
			}
		}
		for i := range rows {
			if rows[i].OnPath && total > 0 {
				rows[i].Pct = 100 * rows[i].SelfUs / total
			}
		}
		slices.SortStableFunc(rows, func(a, b share) int {
			if a.OnPath != b.OnPath {
				if a.OnPath {
					return -1
				}
				return 1
			}
			return cmp.Compare(b.SelfUs, a.SelfUs)
		})
		return rows
	}
	batch := rank([]share{
		{Layer: "graph", SelfUs: us(t.med("graph.insert") + t.med("graph.delete")), OnPath: true},
		{Layer: "plds", SelfUs: lm["plds.batch_self_us"], OnPath: true},
		{Layer: "cplds", SelfUs: lm["cplds.batch_self_us"], OnPath: true},
		{Layer: "mvcc", SelfUs: us(t.med("mvcc.append")), OnPath: sh.retain > 0},
		{Layer: "feed", SelfUs: us(t.med("feed.publish")), OnPath: sh.subscriber},
		{Layer: "shard", SelfUs: lm["shard.apply_self_us"], OnPath: svc || sh.shards > 1},
		{Layer: "kcore", SelfUs: lm["kcore.apply_self_us"], OnPath: sh.inProcess},
		{Layer: "wal", SelfUs: lm["wal.append_us_per_batch"], OnPath: sh.durable},
		{Layer: "server", SelfUs: lm["server.decode_us_per_batch"], OnPath: svc},
		{Layer: "http", SelfUs: us(t.self("client.batch", "server.batch")), OnPath: svc},
		{Layer: "replica", SelfUs: us(t.med("replica.apply")), OnPath: false},
	})
	read := rank([]share{
		{Layer: "cplds", SelfUs: us(t.med("cplds.read")), OnPath: true},
		{Layer: "shard", SelfUs: us(t.self("shard.read_many", "cplds.read")), OnPath: svc || sh.shards > 1},
		{Layer: "kcore", SelfUs: us(t.self("kcore.view_many", "cplds.read")), OnPath: sh.inProcess},
		{Layer: "server", SelfUs: lm["server.read_overhead_us"], OnPath: svc},
		{Layer: "http", SelfUs: lm["server.http_overhead_us"], OnPath: svc},
	})
	retired := rank([]share{
		{Layer: "mvcc", SelfUs: us(t.med("mvcc.overlay_d8")), OnPath: true},
		{Layer: "shard", SelfUs: us(t.self("shard.read_at", "mvcc.overlay_d8")), OnPath: true},
		{Layer: "server", SelfUs: us(t.self("server.bulk_at", "shard.read_at")), OnPath: svc},
		{Layer: "http", SelfUs: us(t.self("client.bulk_at", "server.bulk_at")), OnPath: svc},
	})
	return map[string][]share{"batch": batch, "read": read, "retired_read": retired}
}

// printLayerShares prints the table ROADMAP item 1 asks for: per workload,
// layer -> % of batch wall time and % of read latency.
func printLayerShares(w io.Writer, runs []*result) {
	for _, r := range runs {
		for _, kind := range []string{"batch", "read", "retired_read"} {
			fmt.Fprintf(w, "\n%s: layer share of one %s (self time, median per request)\n", r.Workload, kind)
			for _, s := range r.Shares[kind] {
				if s.OnPath {
					fmt.Fprintf(w, "  %-8s %10.1f us %6.1f %%\n", s.Layer, s.SelfUs, s.Pct)
				} else {
					fmt.Fprintf(w, "  %-8s %10.1f us   (not on this workload's path)\n", s.Layer, s.SelfUs)
				}
			}
		}
	}
}
