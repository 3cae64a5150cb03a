package mvcc

import (
	"fmt"
	"sync"
)

// VectorLog maps cross-shard (global) epochs to the per-shard commit
// vectors they correspond to. The global epoch is the sum of per-shard
// committed counts; that sum only labels a cut unambiguously for *stable*
// vectors — vectors observed unchanged across a window — and the log makes
// the mapping total by serializing every shard's commit publication under
// one lock: the vector after the k-th publication is the logged vector at
// global epoch base+k, and any stable vector a pinned read certifies for
// sum E is exactly the logged vector at E (commits are published in log
// order, so between two publications the live vector *is* the last logged
// entry).
//
// Like Store, the log is a bounded ring with pins: the most recent
// `retain`+1 vectors stay resolvable (the +1 is the current epoch, which is
// always readable), and pinned epochs extend retention oldest-first. With
// retain = 0 it keeps only the live vector and is just the engine's global
// epoch counter.
type VectorLog struct {
	mu     sync.Mutex
	retain int
	cur    []uint64   // live per-shard committed counts
	sum    uint64     // global epoch = sum(cur)
	base   uint64     // global epoch of vecs[0]
	vecs   [][]uint64 // vecs[i] is the commit vector at global epoch base+i
	pins   map[uint64]int
	free   [][]uint64
}

// NewVectorLog returns a log over the given initial per-shard committed
// counts (all zero for a fresh engine), retaining the vectors of the most
// recent `retain` retired epochs (retain <= 0 keeps only the live vector).
func NewVectorLog(initial []uint64, retain int) *VectorLog {
	retain = max(retain, 0)
	cur := make([]uint64, len(initial))
	copy(cur, initial)
	var sum uint64
	for _, c := range cur {
		sum += c
	}
	first := make([]uint64, len(cur))
	copy(first, cur)
	return &VectorLog{
		retain: retain,
		cur:    cur,
		sum:    sum,
		base:   sum,
		vecs:   [][]uint64{first},
		pins:   make(map[uint64]int),
	}
}

// Commit records one shard's batch commit atomically with its publication.
// Under the log lock it logs the shard's advanced vector and then calls
// publish with the new global epoch (the post-commit sum). publish must
// flip the shard's commit sequence to even, making the commit visible to
// readers, and may then hand the commit to consumers that need epoch order
// (the change feed): log order, publication order and epoch order are one
// order. Called from each shard's updater at batch end.
func (l *VectorLog) Commit(shard int, publish func(epoch uint64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cur[shard]++
	l.sum++
	var vec []uint64
	if n := len(l.free); n > 0 {
		vec = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		vec = make([]uint64, len(l.cur))
	}
	copy(vec, l.cur)
	l.vecs = append(l.vecs, vec)
	l.evictLocked()
	publish(l.sum)
}

// Reset reinitializes the log over new per-shard committed counts,
// dropping every retained vector and pin: the history restarts at the new
// sum, exactly as if the log were freshly built with NewVectorLog(counts).
// Used when the engine is restored to an externally supplied state
// (replication bootstrap). Safe concurrent with readers and commit
// publication from the caller's side only if the engine is quiesced — the
// per-shard counts must not move under the swap.
func (l *VectorLog) Reset(counts []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, l.vecs...)
	copy(l.cur, counts)
	var sum uint64
	for _, c := range l.cur {
		sum += c
	}
	l.sum = sum
	l.base = sum
	var first []uint64
	if n := len(l.free); n > 0 {
		first = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		first = make([]uint64, len(l.cur))
	}
	copy(first, l.cur)
	l.vecs = append(l.vecs[:0], first)
	clear(l.pins)
}

// evictLocked drops oldest vectors beyond the retention bound, never
// crossing the oldest pin (the pinned epoch's own vector is needed).
func (l *VectorLog) evictLocked() {
	minPin := ^uint64(0)
	for e := range l.pins {
		if e < minPin {
			minPin = e
		}
	}
	drop := 0
	for len(l.vecs)-drop > l.retain+1 && l.base+uint64(drop) < minPin {
		l.free = append(l.free, l.vecs[drop])
		drop++
	}
	if drop > 0 {
		l.vecs = append(l.vecs[:0], l.vecs[drop:]...)
		l.base += uint64(drop)
	}
}

// Epoch returns the current global epoch (total commits across shards).
func (l *VectorLog) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sum
}

// OldestReadable returns the oldest global epoch whose vector is still
// resolvable.
func (l *VectorLog) OldestReadable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// checkLocked validates that epoch is resolvable.
func (l *VectorLog) checkLocked(epoch uint64) error {
	if epoch > l.sum {
		return &FutureEpochError{Epoch: epoch, Committed: l.sum}
	}
	if epoch < l.base {
		return &EvictedEpochError{Epoch: epoch, OldestReadable: l.base}
	}
	return nil
}

// Check reports whether epoch's vector is resolvable, with the typed
// evicted/future errors.
func (l *VectorLog) Check(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkLocked(epoch)
}

// VectorAt copies the per-shard commit vector of the global epoch into dst
// (len(dst) must be the shard count).
func (l *VectorLog) VectorAt(epoch uint64, dst []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkLocked(epoch); err != nil {
		return err
	}
	copy(dst, l.vecs[epoch-l.base])
	return nil
}

// Pin keeps epoch's vector resolvable until a matching Unpin and copies it
// into dst. Pins nest.
func (l *VectorLog) Pin(epoch uint64, dst []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkLocked(epoch); err != nil {
		return err
	}
	copy(dst, l.vecs[epoch-l.base])
	l.pins[epoch]++
	return nil
}

// Unpin releases one Pin of epoch, copying its vector into dst (pinned
// vectors are always still resolvable). Returns false if epoch was not
// pinned.
func (l *VectorLog) Unpin(epoch uint64, dst []uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.pins[epoch]
	if !ok {
		return false
	}
	copy(dst, l.vecs[epoch-l.base])
	if n > 1 {
		l.pins[epoch] = n - 1
	} else {
		delete(l.pins, epoch)
	}
	l.evictLocked()
	return true
}

// CheckInvariants verifies the ring against the per-shard committed counts
// reported by the engine. Quiescent use only.
func (l *VectorLog) CheckInvariants(shardEpochs []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum uint64
	for si, c := range shardEpochs {
		if l.cur[si] != c {
			return fmt.Errorf("mvcc: vector log shard %d count %d out of lockstep with shard epoch %d",
				si, l.cur[si], c)
		}
		sum += c
	}
	if sum != l.sum {
		return fmt.Errorf("mvcc: vector log sum %d != shard epoch sum %d", l.sum, sum)
	}
	if got := l.base + uint64(len(l.vecs)) - 1; got != l.sum {
		return fmt.Errorf("mvcc: newest logged epoch %d out of lockstep with global epoch %d", got, l.sum)
	}
	last := l.vecs[len(l.vecs)-1]
	for si := range l.cur {
		if last[si] != l.cur[si] {
			return fmt.Errorf("mvcc: newest logged vector %v != live vector %v", last, l.cur)
		}
	}
	return nil
}
