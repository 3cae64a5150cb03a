package kcore

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// drainFeed collects every delivery already enqueued on the subscription.
// Publish is synchronous with commit, so after an update call returns all
// of its deliveries are buffered.
func drainFeed(sub *Subscription) []EventDelivery {
	var ds []EventDelivery
	for {
		select {
		case d, ok := <-sub.C():
			if !ok {
				return ds
			}
			ds = append(ds, d)
		default:
			return ds
		}
	}
}

// TestFeedEventsMatchEpochPinnedReads is the consistency acceptance test:
// in both engine modes, every delivered event's NewCore must equal the
// epoch-pinned read at its epoch, its OldCore the read at the epoch before,
// the delivered vertex set per epoch must equal the brute-force diff of
// the two adjacent epoch-pinned full reads, and each delivery's events
// must come in strictly ascending vertex order.
func TestFeedEventsMatchEpochPinnedReads(t *testing.T) {
	const n = 128
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, err := New(n, WithShards(shards), WithRetainedEpochs(64), WithEventBuffer(256))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			sub, err := d.Subscribe(EventFilter{})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			d.InsertEdges(ring(n))
			d.InsertEdges(clique(16))
			d.InsertEdges(clique(32))
			d.DeleteEdges(clique(16)[:40])

			vs := vertexRange(n)
			for _, del := range drainFeed(sub) {
				if del.Gap {
					t.Fatalf("unexpected gap with large buffer: %+v", del)
				}
				e := del.Epoch
				cur, err := d.ViewAt(e)
				if err != nil {
					t.Fatalf("ViewAt(%d): %v", e, err)
				}
				prev, err := d.ViewAt(e - 1)
				if err != nil {
					t.Fatalf("ViewAt(%d): %v", e-1, err)
				}
				now, before := cur.CorenessMany(vs), prev.CorenessMany(vs)

				// Brute-force movers between the two adjacent cuts.
				moved := make(map[uint32]struct{})
				for i := range vs {
					if math.Float64bits(now[i]) != math.Float64bits(before[i]) {
						moved[vs[i]] = struct{}{}
					}
				}
				if len(moved) != len(del.Events) {
					t.Fatalf("epoch %d: %d events delivered, brute force found %d movers",
						e, len(del.Events), len(moved))
				}
				for i, ev := range del.Events {
					if ev.Epoch != e {
						t.Fatalf("event epoch %d inside delivery for epoch %d", ev.Epoch, e)
					}
					if i > 0 && del.Events[i-1].Vertex >= ev.Vertex {
						t.Fatalf("epoch %d: vertex %d delivered after %d", e, ev.Vertex, del.Events[i-1].Vertex)
					}
					if _, ok := moved[ev.Vertex]; !ok {
						t.Fatalf("epoch %d: event for non-mover vertex %d", e, ev.Vertex)
					}
					if got := now[ev.Vertex]; math.Float64bits(got) != math.Float64bits(ev.NewCore) {
						t.Fatalf("epoch %d vertex %d: NewCore %v, pinned read %v", e, ev.Vertex, ev.NewCore, got)
					}
					if got := before[ev.Vertex]; math.Float64bits(got) != math.Float64bits(ev.OldCore) {
						t.Fatalf("epoch %d vertex %d: OldCore %v, pinned read at %d %v",
							e, ev.Vertex, ev.OldCore, e-1, got)
					}
				}
			}
		})
	}
}

// TestFeedFilterAgainstBruteForce subscribes one filtered and one unfiltered
// stream to the same workload and checks the filtered deliveries are exactly
// the unfiltered events passed through the filter predicate.
func TestFeedFilterAgainstBruteForce(t *testing.T) {
	const n = 96
	const k = 3.0
	d, err := New(n, WithShards(2), WithRetainedEpochs(32), WithEventBuffer(256))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	all, err := d.Subscribe(EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	crossers, err := d.Subscribe(EventFilter{CrossK: k})
	if err != nil {
		t.Fatal(err)
	}

	d.InsertEdges(ring(n))
	d.InsertEdges(clique(24))
	d.DeleteEdges(clique(24)[:100])

	want := make(map[string]int)
	for _, del := range drainFeed(all) {
		for _, ev := range del.Events {
			if (ev.OldCore < k) != (ev.NewCore < k) {
				want[fmt.Sprintf("%d/%d", ev.Epoch, ev.Vertex)]++
			}
		}
	}
	got := make(map[string]int)
	for _, del := range drainFeed(crossers) {
		if del.Gap {
			t.Fatalf("unexpected gap: %+v", del)
		}
		for _, ev := range del.Events {
			got[fmt.Sprintf("%d/%d", ev.Epoch, ev.Vertex)]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("filtered stream delivered %d crossing events, brute force found %d", len(got), len(want))
	}
	for key := range want {
		if got[key] != want[key] {
			t.Fatalf("crossing event %s: filtered %d, brute force %d", key, got[key], want[key])
		}
	}
	if len(want) == 0 {
		t.Fatal("workload produced no threshold crossings; test is vacuous")
	}
}

// TestFeedGapRecoveryViaViewAt forces a slow subscriber into a gap and then
// performs the documented recovery: an epoch-pinned read at or after GapTo
// resynchronizes with live state.
func TestFeedGapRecoveryViaViewAt(t *testing.T) {
	const n = 64
	d, err := New(n, WithRetainedEpochs(32), WithEventBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sub, err := d.Subscribe(EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Never drain while committing: buffer 1 forces drops on every
	// event-producing batch past the first. (The ring alone moves no
	// levels, so it publishes nothing; the cliques do.)
	d.InsertEdges(ring(n))
	d.InsertEdges(clique(8))
	d.InsertEdges(clique(12))
	d.InsertEdges(clique(16))

	if ds := drainFeed(sub); len(ds) == 0 {
		t.Fatal("no deliveries at all")
	}
	// The gap marker flushes on the next publish once the buffer has room.
	d.InsertEdges(clique(20))
	ds := drainFeed(sub)
	var gap *EventDelivery
	for i := range ds {
		if ds[i].Gap {
			gap = &ds[i]
			break
		}
	}
	if gap == nil {
		t.Fatalf("no gap marker after overrunning a 1-slot buffer: %+v", ds)
	}
	if gap.GapTo < gap.GapFrom {
		t.Fatalf("inverted gap: %+v", gap)
	}
	if st := d.FeedStats(); st.Drops == 0 {
		t.Fatalf("drops not counted: %+v", st)
	}

	// Recovery: re-read the state at (or after) the gap's end.
	v, err := d.ViewAt(gap.GapTo)
	if err != nil {
		t.Fatalf("ViewAt(GapTo=%d): %v", gap.GapTo, err)
	}
	got := v.CorenessMany(vertexRange(n))
	if v.Err() != nil {
		t.Fatalf("recovery read failed: %v", v.Err())
	}
	if gap.GapTo == d.Epoch() {
		live := make([]float64, 0, n)
		for _, u := range vertexRange(n) {
			live = append(live, d.Coreness(u))
		}
		if !equalF64(got, live) {
			t.Fatal("recovery read at the frontier diverges from live reads")
		}
	}
}

// TestFeedShardedEpochOrdering checks the publication ordering contract
// concurrently: a subscriber that issues ViewAt(e) the moment it receives
// epoch e must never see ErrFutureEpoch, and the pinned read must agree
// with the delivered NewCore values.
func TestFeedShardedEpochOrdering(t *testing.T) {
	const n = 128
	d, err := New(n, WithShards(4), WithRetainedEpochs(128), WithEventBuffer(512))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sub, err := d.Subscribe(EventFilter{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for del := range sub.C() {
			if del.Gap {
				errc <- fmt.Errorf("unexpected gap: %+v", del)
				return
			}
			lo := del.Epoch
			if lo <= last {
				errc <- fmt.Errorf("epochs out of order: %d after %d", lo, last)
				return
			}
			last = lo
			v, err := d.ViewAt(del.Epoch)
			if err != nil {
				errc <- fmt.Errorf("ViewAt(%d) on delivery: %w", del.Epoch, err)
				return
			}
			for _, ev := range del.Events {
				if got := v.Coreness(ev.Vertex); math.Float64bits(got) != math.Float64bits(ev.NewCore) {
					errc <- fmt.Errorf("epoch %d vertex %d: NewCore %v, immediate pinned read %v",
						del.Epoch, ev.Vertex, ev.NewCore, got)
					return
				}
			}
		}
	}()

	d.InsertEdges(ring(n))
	d.InsertEdges(clique(20))
	d.DeleteEdges(clique(20)[:60])
	d.InsertEdges(clique(32))
	sub.Close()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestFeedShardedWithoutRetention covers the feed on a sharded engine that
// retains no epochs, where the vector log is only the global epoch
// counter: under two concurrent writers, delivered epochs must strictly
// increase and never pass the engine's epoch, and folding every event's
// NewCore into the estimates read before subscribing must reproduce the
// final state of every vertex.
func TestFeedShardedWithoutRetention(t *testing.T) {
	const n = 128
	d, err := New(n, WithShards(4), WithRetainedEpochs(0), WithEventBuffer(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.InsertEdges(ring(n))
	vs := vertexRange(n)
	folded := d.View().CorenessMany(vs)

	sub, err := d.Subscribe(EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clique(12 + 8*w)
			for i := 0; i < 6; i++ {
				for j := range c {
					c[j] = Edge{U: (c[j].U + 7) % n, V: (c[j].V + 7) % n}
				}
				d.InsertEdges(c)
				d.DeleteEdges(c[:len(c)/2])
			}
		}(w)
	}
	wg.Wait()

	last, events := uint64(0), 0
	for _, del := range drainFeed(sub) {
		if del.Gap {
			t.Fatalf("unexpected gap with a large buffer: %+v", del)
		}
		if del.Epoch <= last || del.Epoch > d.Epoch() {
			t.Fatalf("epoch %d delivered after %d (engine at %d)", del.Epoch, last, d.Epoch())
		}
		last = del.Epoch
		for _, ev := range del.Events {
			if math.Float64bits(folded[ev.Vertex]) != math.Float64bits(ev.OldCore) {
				t.Fatalf("epoch %d vertex %d: OldCore %v, folded %v", del.Epoch, ev.Vertex, ev.OldCore, folded[ev.Vertex])
			}
			folded[ev.Vertex] = ev.NewCore
			events++
		}
	}
	if events == 0 {
		t.Fatal("workload produced no events; test is vacuous")
	}
	if want := d.View().CorenessMany(vs); !equalF64(folded, want) {
		t.Fatalf("folded feed %v, final view %v", folded, want)
	}
}

// TestFeedSubscriberCapOption checks WithMaxSubscribers end to end.
func TestFeedSubscriberCapOption(t *testing.T) {
	d, err := New(16, WithMaxSubscribers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Subscribe(EventFilter{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe(EventFilter{}); err != ErrTooManySubscribers {
		t.Fatalf("over cap: err=%v", err)
	}
}

// feedEventsByEpoch groups a drained feed's events per epoch, in delivery
// order, failing on gap markers.
func feedEventsByEpoch(t *testing.T, who string, ds []EventDelivery) map[uint64][]CoreEvent {
	t.Helper()
	byEpoch := make(map[uint64][]CoreEvent)
	for _, del := range ds {
		if del.Gap {
			t.Fatalf("%s feed gapped with a large buffer: %+v", who, del)
		}
		if _, dup := byEpoch[del.Epoch]; dup {
			t.Fatalf("%s feed delivered epoch %d twice", who, del.Epoch)
		}
		byEpoch[del.Epoch] = del.Events
	}
	return byEpoch
}

// TestFeedParityPrimaryFollower subscribes an unfiltered feed on both ends
// of a replication link during ingest and asserts the follower's replayed
// commits emit exactly the primary's mover events, epoch for epoch. This is
// the replica-feed acceptance test: the change feed is derived from batch
// application, so replaying the same batch stream must publish the same
// events.
func TestFeedParityPrimaryFollower(t *testing.T) {
	const n = 128
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			primary, err := New(n, WithShards(shards), WithReplicationListen("127.0.0.1:0"),
				fastReplOpts(), WithRetainedEpochs(64), WithEventBuffer(512))
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			// The follower attaches before any ingest so it observes every
			// epoch from 1, same as the primary's subscriber.
			follower, err := New(n, WithShards(shards),
				WithReplicationSource(primary.ReplicationAddr()),
				fastReplOpts(), WithRetainedEpochs(64), WithEventBuffer(512))
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()

			psub, err := primary.Subscribe(EventFilter{})
			if err != nil {
				t.Fatal(err)
			}
			defer psub.Close()
			fsub, err := follower.Subscribe(EventFilter{})
			if err != nil {
				t.Fatal(err)
			}
			defer fsub.Close()

			primary.InsertEdges(ring(n))
			primary.InsertEdges(clique(16))
			primary.InsertEdges(clique(32))
			primary.DeleteEdges(clique(16)[:40])
			waitForEpoch(t, follower, primary.Epoch())

			pe := feedEventsByEpoch(t, "primary", drainFeed(psub))
			fe := feedEventsByEpoch(t, "follower", drainFeed(fsub))
			if len(pe) == 0 {
				t.Fatal("primary feed delivered nothing")
			}
			if len(pe) != len(fe) {
				t.Fatalf("primary delivered %d epochs, follower %d", len(pe), len(fe))
			}
			for e, pevs := range pe {
				fevs, ok := fe[e]
				if !ok {
					t.Fatalf("follower feed missing epoch %d", e)
				}
				if len(pevs) != len(fevs) {
					t.Fatalf("epoch %d: primary %d events, follower %d", e, len(pevs), len(fevs))
				}
				for i := range pevs {
					p, f := pevs[i], fevs[i]
					if p.Vertex != f.Vertex ||
						math.Float64bits(p.OldCore) != math.Float64bits(f.OldCore) ||
						math.Float64bits(p.NewCore) != math.Float64bits(f.NewCore) {
						t.Fatalf("epoch %d event %d differs: primary %+v, follower %+v", e, i, p, f)
					}
				}
			}
		})
	}
}
