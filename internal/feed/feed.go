// Package feed turns each batch's commit delta — the movers the PLDS
// sweeps already compute — into a subscription change feed. At every
// batch commit the engine hands the hub one slice of per-vertex coreness
// transitions, in ascending vertex order and stamped with the commit's
// (cross-shard) epoch; epochs reach the hub in increasing order. The hub
// fans them out to subscribers over bounded buffered channels.
//
// Backpressure policy: the commit path never blocks on a subscriber.
// A subscriber whose buffer is full gets a gap marker carrying the epoch
// range it missed instead of the events themselves — it can recover the
// lost state with an epoch-pinned read (ViewAt) at the gap's upper bound.
// This mirrors the replica feeder's overrun-drop policy: slow consumers
// lose data, never stall the engine.
package feed

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Event is one vertex's coreness transition at one committed batch.
// NewCore is exactly the value an epoch-pinned read at Epoch returns for
// Vertex; OldCore is exactly the value at Epoch-1.
type Event struct {
	Epoch   uint64  `json:"epoch"`
	Vertex  uint32  `json:"vertex"`
	OldCore float64 `json:"old_core"`
	NewCore float64 `json:"new_core"`
}

// Filter selects which events a subscription receives. The zero value
// matches everything. Set fields compose with AND:
//
//   - Vertices: only events for these vertices.
//   - CrossK > 0: only transitions that cross the threshold k — the old
//     and new coreness fall on opposite sides of k (old < k <= new, or
//     new < k <= old).
//   - MinDelta > 0: only transitions with |new-old| >= MinDelta.
type Filter struct {
	Vertices []uint32
	CrossK   float64
	MinDelta float64
}

// compiled is the per-subscription matcher: a set for the vertex filter
// plus the scalar thresholds, built once at Subscribe.
type compiled struct {
	vset     map[uint32]struct{}
	crossK   float64
	minDelta float64
	all      bool
}

func (f Filter) compile() compiled {
	c := compiled{crossK: f.CrossK, minDelta: f.MinDelta}
	if len(f.Vertices) > 0 {
		c.vset = make(map[uint32]struct{}, len(f.Vertices))
		for _, v := range f.Vertices {
			c.vset[v] = struct{}{}
		}
	}
	c.all = c.vset == nil && c.crossK <= 0 && c.minDelta <= 0
	return c
}

func (c *compiled) match(e Event) bool {
	if c.vset != nil {
		if _, ok := c.vset[e.Vertex]; !ok {
			return false
		}
	}
	if k := c.crossK; k > 0 {
		below := e.OldCore < k
		nowBelow := e.NewCore < k
		if below == nowBelow {
			return false
		}
	}
	if d := c.minDelta; d > 0 {
		diff := e.NewCore - e.OldCore
		if diff < 0 {
			diff = -diff
		}
		if diff < d {
			return false
		}
	}
	return true
}

// Delivery is one message on a subscription channel: either the matching
// events of one committed epoch, in ascending vertex order, or a gap
// marker covering the epochs [GapFrom, GapTo] the subscriber was too slow
// to receive. After a gap, re-read the vertices you care about with an
// epoch-pinned read at GapTo (or any later epoch) to resynchronize.
type Delivery struct {
	Epoch   uint64
	Events  []Event
	Gap     bool
	GapFrom uint64
	GapTo   uint64
}

// Stats is a snapshot of the hub's counters.
type Stats struct {
	Subscribers int    `json:"subscribers"`
	Epochs      uint64 `json:"epochs"`     // commits published to the hub
	Events      uint64 `json:"events"`     // events offered (pre-filter, per commit)
	Deliveries  uint64 `json:"deliveries"` // deliveries enqueued across subscribers
	Drops       uint64 `json:"drops"`      // deliveries dropped at full buffers
	Gaps        uint64 `json:"gaps"`       // gap markers enqueued
}

var (
	// ErrTooManySubscribers is returned by Subscribe when the hub's cap
	// is reached.
	ErrTooManySubscribers = errors.New("feed: too many subscribers")
	// ErrClosed is returned by Subscribe after the hub is closed.
	ErrClosed = errors.New("feed: hub closed")
)

// DefaultBuffer is the per-subscriber delivery buffer used when
// Subscribe is called with buffer <= 0.
const DefaultBuffer = 64

// Hub fans per-commit event slices out to subscribers. Publish is called
// from the engine's commit path; everything it does is bounded (one event
// copy, one non-blocking send per subscriber), so commit latency does not
// depend on consumer speed.
type Hub struct {
	mu      sync.Mutex
	subs    map[*Subscription]struct{}
	closed  bool
	maxSubs int

	nsubs      atomic.Int64 // mirrors len(subs) for the lock-free fast path
	epochs     atomic.Uint64
	events     atomic.Uint64
	deliveries atomic.Uint64
	drops      atomic.Uint64
	gaps       atomic.Uint64
}

// NewHub returns a hub admitting at most maxSubs concurrent subscribers
// (0 = unlimited).
func NewHub(maxSubs int) *Hub {
	return &Hub{subs: make(map[*Subscription]struct{}), maxSubs: maxSubs}
}

// Active reports whether any subscriber is attached. It is a single
// atomic load — the commit path checks it before touching mover state so
// an idle hub costs nothing.
func (h *Hub) Active() bool { return h.nsubs.Load() > 0 }

// Subscription is one consumer's handle: a receive channel plus Close.
type Subscription struct {
	hub    *Hub
	ch     chan Delivery
	filter compiled

	// Pending gap, accumulated while the buffer is full; flushed ahead
	// of the next delivery that fits. Guarded by hub.mu.
	gapFrom uint64
	gapTo   uint64
	gapped  bool
	closed  bool
}

// C is the delivery channel. It is closed when the subscription or the
// hub is closed; a full buffer converts missed epochs into gap markers
// rather than blocking the sender.
func (s *Subscription) C() <-chan Delivery { return s.ch }

// Close detaches the subscription and closes its channel. Safe to call
// more than once and concurrently with Publish.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(h.subs, s)
	h.nsubs.Store(int64(len(h.subs)))
	close(s.ch)
}

// Subscribe attaches a consumer with the given filter and per-subscriber
// buffer (<= 0 selects DefaultBuffer).
func (h *Hub) Subscribe(f Filter, buffer int) (*Subscription, error) {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if h.maxSubs > 0 && len(h.subs) >= h.maxSubs {
		return nil, ErrTooManySubscribers
	}
	s := &Subscription{hub: h, ch: make(chan Delivery, buffer), filter: f.compile()}
	h.subs[s] = struct{}{}
	h.nsubs.Store(int64(len(h.subs)))
	return s, nil
}

// Publish fans one commit's events out to every subscriber. The events
// slice is copied once; all-events subscribers share the read-only copy,
// filtering subscribers get their own matching slice. Never blocks: a
// full subscriber buffer turns this epoch into (or extends) that
// subscriber's pending gap.
//
// Publish is called with commit-path ordering: epochs arrive in
// increasing order, after the epoch is readable.
func (h *Hub) Publish(epoch uint64, events []Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	h.epochs.Add(1)
	h.events.Add(uint64(len(events)))
	var shared []Event // lazily copied, shared by all-filter subscribers
	for s := range h.subs {
		var evs []Event
		if s.filter.all {
			if shared == nil {
				shared = make([]Event, len(events))
				copy(shared, events)
			}
			evs = shared
		} else {
			for _, e := range events {
				if s.filter.match(e) {
					evs = append(evs, e)
				}
			}
			if evs == nil {
				continue // nothing matched; not a drop, not a gap
			}
		}
		h.sendLocked(s, epoch, evs)
	}
}

// sendLocked delivers one epoch to one subscriber: flush any pending gap
// first, then the events, converting failures into (extended) gaps.
func (h *Hub) sendLocked(s *Subscription, epoch uint64, events []Event) {
	if s.gapped {
		select {
		case s.ch <- Delivery{Gap: true, GapFrom: s.gapFrom, GapTo: s.gapTo}:
			s.gapped = false
			h.gaps.Add(1)
		default:
			// Still stuck: this epoch joins the gap.
			s.gapTo = epoch
			h.drops.Add(1)
			return
		}
	}
	select {
	case s.ch <- Delivery{Epoch: epoch, Events: events}:
		h.deliveries.Add(1)
	default:
		s.gapped = true
		s.gapFrom = epoch
		s.gapTo = epoch
		h.drops.Add(1)
	}
}

// Stats snapshots the hub's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	n := len(h.subs)
	h.mu.Unlock()
	return Stats{
		Subscribers: n,
		Epochs:      h.epochs.Load(),
		Events:      h.events.Load(),
		Deliveries:  h.deliveries.Load(),
		Drops:       h.drops.Load(),
		Gaps:        h.gaps.Load(),
	}
}

// Close detaches and closes every subscription and rejects future
// subscribes. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		s.closed = true
		close(s.ch)
	}
	h.subs = make(map[*Subscription]struct{})
	h.nsubs.Store(0)
}
