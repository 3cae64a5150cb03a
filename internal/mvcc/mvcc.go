// Package mvcc is the bounded multi-version store behind retained epoch
// reads: it keeps, for each recently committed batch, the batch's undo
// records — every (vertex, pre-batch level) pair — so that a read pinned at
// a retired epoch E can reconstruct the exact level any vertex had at E by
// overlaying the retained deltas newest-to-oldest on the live state.
//
// # Model
//
// Each engine instance (one CPLDS, or one shard of the sharded engine) owns
// a Store. At every commit the instance captures one Delta — the batch's
// changed-level movers with their pre- and post-batch levels, sorted by
// vertex — and Put retains its (vertex, pre-batch level) pairs. The Store
// keeps the most recent `retain` deltas, evicting oldest-first. A vertex's
// level at epoch E is then its live level at the current epoch C,
// overridden by the *earliest* delta in (E, C] that contains the vertex
// (that delta recorded the vertex's level before its first post-E move,
// which is its level at E).
//
// Every sharded engine (P > 1) additionally owns a VectorLog, whatever its
// retention: cross-shard epochs are sums of per-shard committed counts, the
// log is the one counter that assigns them, and serving a retired global
// epoch requires the per-shard commit vector it corresponds to. The log
// makes the global epoch ↔ vector mapping well defined by serializing every
// shard's commit *publication* under the log lock: log order is publication
// order, so the stable vector a pinned read certifies for sum E is exactly
// the logged vector at E.
//
// # Retention and pins
//
// Both structures are bounded rings: capacity `retain` plus whatever
// outstanding pins require. Pinning epoch E guarantees E stays readable —
// eviction never crosses the oldest pin — at the cost of memory growing
// with the pin's age, the usual long-transaction trade of MVCC systems.
// Reads of epochs that fell off the ring fail with an *EvictedEpochError
// (matched by errors.Is against ErrEvicted); reads of epochs that have not
// committed yet fail with a *FutureEpochError (ErrFuture).
package mvcc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// DefaultRetain is the default retention depth: how many retired epochs
// stay readable behind the newest committed one. Small on purpose — each
// retained epoch costs one delta (the batch's movers) per engine instance.
const DefaultRetain = 8

// ErrEvicted is the sentinel matched (via errors.Is) by every eviction
// error: the requested epoch was retired beyond the retention window, or
// retention is disabled.
var ErrEvicted = errors.New("epoch evicted from the multi-version store")

// ErrFuture is the sentinel matched (via errors.Is) by every future-epoch
// error: the requested epoch has not committed yet.
var ErrFuture = errors.New("epoch not committed yet")

// EvictedEpochError reports a read or pin of an epoch that is no longer
// retained. OldestReadable is the oldest epoch that was still servable when
// the error was produced.
type EvictedEpochError struct {
	Epoch          uint64
	OldestReadable uint64
}

func (e *EvictedEpochError) Error() string {
	return fmt.Sprintf("epoch %d evicted (oldest readable epoch is %d)", e.Epoch, e.OldestReadable)
}

// Unwrap matches ErrEvicted.
func (e *EvictedEpochError) Unwrap() error { return ErrEvicted }

// FutureEpochError reports a read or pin of an epoch beyond the newest
// committed one.
type FutureEpochError struct {
	Epoch     uint64
	Committed uint64
}

func (e *FutureEpochError) Error() string {
	return fmt.Sprintf("epoch %d not committed yet (newest committed epoch is %d)", e.Epoch, e.Committed)
}

// Unwrap matches ErrFuture.
func (e *FutureEpochError) Unwrap() error { return ErrFuture }

// Move is one vertex's level change in one committed batch: V moved from
// level Old (at the batch's epoch minus one) to level New (at its epoch).
type Move struct {
	V        uint32
	Old, New int32
}

// Delta is what one committed batch changed: the instance-local epoch the
// batch created and its movers whose level differs across the batch,
// sorted by V. The CPLDS fills one reused Delta per commit; its readers
// (Store.Put, the commit hook) must not retain it past the call.
type Delta struct {
	Epoch uint64
	Moves []Move
}

// Record is one undo record: vertex V had level Old before the batch this
// record's delta belongs to (i.e. at the delta's epoch minus one).
type Record struct {
	V   uint32
	Old int32
}

// delta is the undo set of one committed batch: the batch's movers with
// their pre-batch levels, sorted by vertex for binary search. epoch is the
// epoch the batch created; the records are the state at epoch-1.
type delta struct {
	epoch uint64
	recs  []Record
}

// lookup returns the record for v, if present.
func (d *delta) lookup(v uint32) (int32, bool) {
	i, ok := slices.BinarySearchFunc(d.recs, v, func(r Record, v uint32) int {
		return cmp.Compare(r.V, v)
	})
	if !ok {
		return 0, false
	}
	return d.recs[i].Old, true
}

// Store is the per-engine-instance ring of epoch deltas.
//
// Concurrency: Put (or Append) is called by the instance's single updater
// at batch end; Overlay*, Pin, Unpin, Check and OldestReadable may be
// called from any goroutine at any time.
type Store struct {
	mu     sync.RWMutex
	retain int
	deltas []delta // contiguous epochs, oldest first
	pins   map[uint64]int
	free   [][]Record // recycled record buffers (steady state allocates nothing)
}

// NewStore returns a store retaining the most recent `retain` deltas
// (retain >= 1); pinned epochs extend retention past that bound.
func NewStore(retain int) *Store {
	if retain < 1 {
		retain = 1
	}
	return &Store{retain: retain, pins: make(map[uint64]int)}
}

// Retain returns the configured retention depth.
func (s *Store) Retain() int { return s.retain }

// minPinnedLocked returns the oldest pinned epoch, or ^0 when none.
func (s *Store) minPinnedLocked() uint64 {
	min := ^uint64(0)
	for e := range s.pins {
		if e < min {
			min = e
		}
	}
	return min
}

// oldestReadableLocked returns the oldest epoch the retained deltas can
// reconstruct, given the current committed epoch cur: one epoch before the
// oldest delta (its records are the state at delta.epoch-1), or cur itself
// when nothing is retained.
func (s *Store) oldestReadableLocked(cur uint64) uint64 {
	if len(s.deltas) == 0 {
		return cur
	}
	return s.deltas[0].epoch - 1
}

// OldestReadable returns the oldest epoch currently servable, given the
// engine's current committed epoch.
func (s *Store) OldestReadable(cur uint64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.oldestReadableLocked(cur)
}

// Put retains the undo records of d, the delta of the batch committing
// d.Epoch: its movers' pre-batch levels, already sorted by vertex. The
// caller must invoke Put before publishing the commit to readers, so any
// reader that observes d.Epoch finds its delta present. Epochs must be put
// consecutively.
func (s *Store) Put(d *Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.recordsLocked(d.Epoch)
	for _, m := range d.Moves {
		recs = append(recs, Record{V: m.V, Old: m.Old})
	}
	s.deltas = append(s.deltas, delta{epoch: d.Epoch, recs: recs})
	s.evictLocked()
}

// Append is Put for a delta given as an unsorted mover set: for every
// vertex in movers (duplicate-free), oldOf must return its pre-batch
// level. Used to replay recorded movers into a standalone store.
func (s *Store) Append(epoch uint64, movers []uint32, oldOf func(uint32) int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.recordsLocked(epoch)
	for _, v := range movers {
		recs = append(recs, Record{V: v, Old: oldOf(v)})
	}
	slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.V, b.V) })
	s.deltas = append(s.deltas, delta{epoch: epoch, recs: recs})
	s.evictLocked()
}

// recordsLocked checks that epoch follows the newest retained delta and
// returns an empty record buffer, recycled when one is free.
func (s *Store) recordsLocked(epoch uint64) []Record {
	if n := len(s.deltas); n > 0 && s.deltas[n-1].epoch+1 != epoch {
		panic(fmt.Sprintf("mvcc: non-consecutive delta append: have %d, appending %d",
			s.deltas[n-1].epoch, epoch))
	}
	n := len(s.free)
	if n == 0 {
		return nil
	}
	recs := s.free[n-1][:0]
	s.free = s.free[:n-1]
	return recs
}

// Reset drops every retained delta and pin, recycling the record buffers:
// the ring restarts empty, exactly as if the store were freshly built.
// Used when the owning instance is restored to an externally supplied
// state (replication bootstrap) — pre-restore epochs are no longer
// reconstructable, and the next Put may start at any epoch. Safe
// concurrent with readers, which simply observe an empty ring; reads and
// unpins of previously pinned epochs fail softly afterwards.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.deltas {
		s.free = append(s.free, d.recs)
	}
	s.deltas = s.deltas[:0]
	clear(s.pins)
}

// evictLocked drops oldest deltas beyond the retention bound, never
// crossing the oldest pin (reading pinned epoch E needs every delta with
// epoch > E; deltas at epochs <= E are evictable).
func (s *Store) evictLocked() {
	minPin := s.minPinnedLocked()
	drop := 0
	for len(s.deltas)-drop > s.retain && s.deltas[drop].epoch <= minPin {
		s.free = append(s.free, s.deltas[drop].recs)
		drop++
	}
	if drop > 0 {
		s.deltas = append(s.deltas[:0], s.deltas[drop:]...)
	}
}

// Check reports whether epoch is servable given the current committed
// epoch, with the typed evicted/future errors.
func (s *Store) Check(epoch, cur uint64) error {
	if epoch > cur {
		return &FutureEpochError{Epoch: epoch, Committed: cur}
	}
	if epoch == cur {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.coverLocked(epoch, cur)
}

// coverLocked verifies every delta in (target, cur] is retained.
func (s *Store) coverLocked(target, cur uint64) error {
	if target == cur {
		return nil
	}
	if len(s.deltas) == 0 || s.deltas[0].epoch > target+1 {
		return &EvictedEpochError{Epoch: target, OldestReadable: s.oldestReadableLocked(cur)}
	}
	if newest := s.deltas[len(s.deltas)-1].epoch; newest < cur {
		// The caller observed an epoch whose delta was never appended:
		// retention was enabled mid-history or the append/publish order was
		// violated. Surface it as an eviction of the target.
		return &EvictedEpochError{Epoch: target, OldestReadable: cur}
	}
	return nil
}

// deltaLocked returns the delta committing epoch e; coverage must have been
// verified.
func (s *Store) deltaLocked(e uint64) *delta {
	return &s.deltas[e-s.deltas[0].epoch]
}

// OverlayMany rewinds levels[i] — the live level of vs[i] at the current
// committed epoch cur — to the level vs[i] had at the retired epoch target,
// by overlaying the deltas of epochs (target, cur] newest-to-oldest (the
// earliest delta containing a vertex wins: it recorded the vertex's level
// before its first post-target move).
func (s *Store) OverlayMany(target, cur uint64, vs []uint32, levels []int32) error {
	if target == cur {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.coverLocked(target, cur); err != nil {
		return err
	}
	for e := cur; e > target; e-- {
		d := s.deltaLocked(e)
		if len(d.recs) == 0 {
			continue
		}
		for i, v := range vs {
			if old, ok := d.lookup(v); ok {
				levels[i] = old
			}
		}
	}
	return nil
}

// OverlayAll rewinds levels[v] — every vertex's live level at the current
// committed epoch cur — to the state at the retired epoch target.
func (s *Store) OverlayAll(target, cur uint64, levels []int32) error {
	if target == cur {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.coverLocked(target, cur); err != nil {
		return err
	}
	for e := cur; e > target; e-- {
		for _, r := range s.deltaLocked(e).recs {
			levels[r.V] = r.Old
		}
	}
	return nil
}

// Pin keeps epoch readable — evictions will not cross it — until a
// matching Unpin. Fails with the typed errors if epoch is not currently
// servable. Pins nest (each Pin needs its own Unpin).
func (s *Store) Pin(epoch, cur uint64) error {
	if epoch > cur {
		return &FutureEpochError{Epoch: epoch, Committed: cur}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.coverLocked(epoch, cur); err != nil {
		return err
	}
	s.pins[epoch]++
	return nil
}

// Unpin releases one Pin of epoch; deltas the pin was holding beyond the
// retention bound are reclaimed immediately.
func (s *Store) Unpin(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.pins[epoch]; n > 1 {
		s.pins[epoch] = n - 1
	} else {
		delete(s.pins, epoch)
	}
	s.evictLocked()
}

// Pins returns the number of distinct pinned epochs (diagnostics).
func (s *Store) Pins() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pins)
}

// CheckInvariants verifies the ring's structural invariants against the
// engine's current committed epoch: contiguous epochs ending at cur (once
// any delta has been appended), sorted records, and retention bounded by
// retain plus the oldest pin. Quiescent use only.
func (s *Store) CheckInvariants(cur uint64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, d := range s.deltas {
		if i > 0 && s.deltas[i-1].epoch+1 != d.epoch {
			return fmt.Errorf("mvcc: delta epochs not contiguous at %d", i)
		}
		if !slices.IsSortedFunc(d.recs, func(a, b Record) int { return cmp.Compare(a.V, b.V) }) {
			return fmt.Errorf("mvcc: delta %d records unsorted", d.epoch)
		}
	}
	if n := len(s.deltas); n > 0 {
		if newest := s.deltas[n-1].epoch; newest != cur {
			return fmt.Errorf("mvcc: newest delta epoch %d out of lockstep with committed epoch %d", newest, cur)
		}
		minPin := s.minPinnedLocked()
		if n > s.retain && s.deltas[0].epoch > minPin+1 {
			return fmt.Errorf("mvcc: retaining %d deltas (cap %d) with oldest pin %d", n, s.retain, minPin)
		}
	}
	return nil
}
