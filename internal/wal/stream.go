package wal

// Tail streaming: the primary-side surface of log-shipping replication.
//
// Every committed batch is encoded exactly once, at commit, into its framed
// record — the [len][crc][payload] bytes a log segment stores — and those
// bytes are what the log appends and what the tail ships. The TailSource's
// encode runs inside the committing shard's one-updater section, into that
// shard's scratch buffer. A Manager appends the frame to the log and only
// then publishes it, so a follower never holds a record that was not first
// handed to the disk under the fsync policy (under SyncAlways, not before
// its fsync). Publication copies the frame once when a subscriber or the
// retained ring wants it; the copy is shared read-only from then on.
//
// The replay-parity property means the record stream *is* the state: a
// follower that starts from a consistent engine capture and applies every
// later record in per-shard commit order is byte-identical to the primary.
// Bootstrap hands both halves to a subscriber atomically: it captures
// every shard's durable state and registers the tail reader inside one
// quiesce section, so no batch can commit between the capture and the
// subscription — the reader's channel carries exactly the records after
// the captured vector.
//
// Subscribers that cannot keep up are disconnected, not waited for: the
// publish path runs on the update hot path and must never block on a slow
// network peer. An overrun reader's channel is closed and Overrun reports
// it; the replication layer responds by resuming or re-bootstrapping.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultTailBuffer is the per-subscriber channel depth used when
// Bootstrap is called with buffer <= 0.
const DefaultTailBuffer = 4096

// DefaultRetainBatches is the retained-batch ring depth used when
// SetRetain is called with the feeder's zero-value option: how many of
// the newest committed batches the primary keeps in memory so that a
// reconnecting follower can Resume from its applied commit vector instead
// of re-bootstrapping the full snapshot.
const DefaultRetainBatches = 1024

// Record is one committed batch as the log stores it and the replication
// stream ships it. Frame is the [len][crc][payload] encoding (DecodeRecord
// reads it back); Shard and Epoch repeat the batch's header so the stream
// can track commit vectors without decoding.
type Record struct {
	Shard int
	Epoch uint64
	Frame []byte
}

// TailReader is one subscription to the live committed-record stream.
// Records arrive on C in per-shard commit order (the same linearization
// the log records); their frames are read-only and owned by the stream.
type TailReader struct {
	hub     *tailHub
	ch      chan Record
	overrun atomic.Bool
	closed  bool // guarded by hub.mu
}

// C returns the record channel. It is closed when the reader falls too far
// behind (check Overrun) or the source shuts down.
func (r *TailReader) C() <-chan Record { return r.ch }

// Overrun reports whether the subscription was dropped because the reader
// could not keep up with the commit rate.
func (r *TailReader) Overrun() bool { return r.overrun.Load() }

// Close unsubscribes. Idempotent; safe concurrent with publishes.
func (r *TailReader) Close() {
	r.hub.mu.Lock()
	defer r.hub.mu.Unlock()
	r.closeLocked()
}

func (r *TailReader) closeLocked() {
	if r.closed {
		return
	}
	r.closed = true
	delete(r.hub.subs, r)
	close(r.ch)
}

// tailHub fans the committed-record stream out to subscribers and, when
// retention is enabled, keeps the newest retain records in a ring so a
// reconnecting follower can resume from its applied commit vector. The
// zero value is ready to use (retention off).
type tailHub struct {
	mu   sync.Mutex
	subs map[*TailReader]struct{}

	// Retained ring: the newest `retain` published records, in publish
	// order (which is per-shard commit order). low is the per-shard
	// low-water vector — every epoch <= low[si] has been evicted from the
	// ring (or predates retention being enabled); cur is the per-shard
	// newest published epoch. A cursor vec is resumable exactly when
	// low[si] <= vec[si] <= cur[si] for every shard: the ring then holds
	// every record after vec and nothing before it is needed.
	retain int
	ring   []Record // circular, ring[(start+i)%len] for i < count
	start  int
	count  int
	low    []uint64
	cur    []uint64
}

// setRetain (re)configures the retained ring. cur must be the per-shard
// committed epochs at the call point, read where no batch can commit (the
// caller holds an engine quiesce): everything up to cur counts as already
// evicted, so only records published after this call are resumable.
// n <= 0 disables retention.
func (h *tailHub) setRetain(n int, cur []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.start, h.count = 0, 0
	if n <= 0 {
		h.retain, h.ring, h.low, h.cur = 0, nil, nil, nil
		return
	}
	h.retain = n
	h.ring = make([]Record, n)
	h.low = append([]uint64(nil), cur...)
	h.cur = append([]uint64(nil), cur...)
}

// retainLocked pushes one already-copied record into the ring, evicting
// the oldest entry (advancing its shard's low-water mark) when full.
// Caller holds h.mu.
func (h *tailHub) retainLocked(rec Record) {
	if h.count == h.retain {
		old := h.ring[h.start]
		h.low[old.Shard] = old.Epoch
		h.ring[h.start] = Record{}
		h.start = (h.start + 1) % h.retain
		h.count--
	}
	h.ring[(h.start+h.count)%h.retain] = rec
	h.count++
	h.cur[rec.Shard] = rec.Epoch
}

// replayAfter returns the retained records after the commit vector vec, in
// publish (per-shard commit) order, plus a copy of the current vector. ok
// is false when vec is not covered by retention — some shard's cursor
// predates the low-water mark (evicted), runs ahead of the primary, or
// retention is off — in which case the caller falls back to bootstrap.
// The returned records alias ring entries; their frames are immutable
// (publish copied them once) so sharing is safe even as the ring later
// evicts them.
func (h *tailHub) replayAfter(vec []uint64) (replay []Record, cur []uint64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.retain == 0 || len(vec) != len(h.cur) {
		return nil, nil, false
	}
	for si := range vec {
		if vec[si] < h.low[si] || vec[si] > h.cur[si] {
			return nil, nil, false
		}
	}
	for i := 0; i < h.count; i++ {
		rec := h.ring[(h.start+i)%h.retain]
		if rec.Epoch > vec[rec.Shard] {
			replay = append(replay, rec)
		}
	}
	return replay, append([]uint64(nil), h.cur...), true
}

// subscribe registers a new reader. Callers that need the stream to start
// at a known state must call it where no batch can commit (see Bootstrap).
func (h *tailHub) subscribe(buffer int) *TailReader {
	if buffer <= 0 {
		buffer = DefaultTailBuffer
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.subs == nil {
		h.subs = make(map[*TailReader]struct{})
	}
	r := &TailReader{hub: h, ch: make(chan Record, buffer)}
	h.subs[r] = struct{}{}
	return r
}

// publish delivers one committed record to every subscriber and the
// retained ring. It runs inside the committing shard's one-updater
// section, so per-shard records are published in commit order; shards
// publish concurrently, which the hub lock serializes. The frame aliases
// the shard's encode scratch, so it is copied once — only when someone
// wants it — and the copy is shared read-only by the ring and every
// subscriber. A subscriber whose channel is full is dropped (overrun)
// rather than blocked on.
func (h *tailHub) publish(rec Record) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 && h.retain == 0 {
		return
	}
	rec.Frame = bytes.Clone(rec.Frame)
	if h.retain > 0 {
		h.retainLocked(rec)
	}
	for r := range h.subs {
		select {
		case r.ch <- rec:
		default:
			r.overrun.Store(true)
			r.closeLocked()
		}
	}
}

// closeAll drops every subscriber (source shutdown).
func (h *tailHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for r := range h.subs {
		r.closeLocked()
	}
}

// TailSource is the primary-side replication source: it encodes the
// engine's committed batches into records, hands out a consistent engine
// capture plus the record stream from exactly that point (Bootstrap), and
// serves reconnecting followers from a retained ring (Resume). A Manager
// owns one (Manager.Tail) and publishes each record after appending it to
// the log; a primary without a WAL attaches one with NewTailSource. An
// engine has a single batch-log slot, so an engine has at most one
// TailSource.
type TailSource struct {
	eng Engine
	hub tailHub
	// bufs is the per-shard encode scratch. Only shard si's commit hook
	// touches bufs[si], inside that shard's one-updater section, so it
	// needs no lock.
	bufs   [][]byte
	closed atomic.Bool
}

func newTailSource(eng Engine) *TailSource {
	return &TailSource{eng: eng, bufs: make([][]byte, eng.NumShards())}
}

// NewTailSource attaches a tail to an engine running without a WAL: it
// installs a commit hook that encodes and publishes every batch (under a
// quiesce, so it is safe on a live engine). Do not use it on an engine
// with an open Manager; use Manager.Tail there.
func NewTailSource(eng Engine) *TailSource {
	t := newTailSource(eng)
	eng.Quiesce(func() { eng.SetBatchLog(t.onBatch) })
	return t
}

func (t *TailSource) onBatch(b Batch) { t.hub.publish(t.encode(b)) }

// encode frames b into its shard's scratch buffer. The returned frame is
// valid until that shard's next commit.
func (t *TailSource) encode(b Batch) Record {
	t.bufs[b.Shard] = encodeRecord(t.bufs[b.Shard], b)
	return Record{Shard: b.Shard, Epoch: b.Epoch, Frame: t.bufs[b.Shard]}
}

// NumVertices returns the engine's vertex count.
func (t *TailSource) NumVertices() int { return t.eng.NumVertices() }

// NumShards returns the engine's shard count.
func (t *TailSource) NumShards() int { return t.eng.NumShards() }

// Bootstrap quiesces the engine, captures every shard's durable state and
// registers a tail subscription inside the same quiesce section: the
// returned reader's channel carries exactly the records committed after
// the captured per-shard epochs. buffer <= 0 uses DefaultTailBuffer. It
// works while a Manager is degraded (replication does not depend on the
// disk) but not after Close.
func (t *TailSource) Bootstrap(buffer int) ([]ShardState, *TailReader, error) {
	if t.closed.Load() {
		return nil, nil, fmt.Errorf("wal: bootstrap after close")
	}
	states := make([]ShardState, t.eng.NumShards())
	var tr *TailReader
	t.eng.Quiesce(func() {
		for si := range states {
			states[si] = t.eng.ShardDurable(si)
		}
		tr = t.hub.subscribe(buffer)
	})
	return states, tr, nil
}

// SetRetain sizes the retained-record ring behind Resume: the source keeps
// the newest n committed records in memory. The low-water vector is seeded
// from the engine's committed epochs inside a quiesce, so only records
// committed after the call are resumable. n <= 0 disables retention
// (every Resume reports stale).
func (t *TailSource) SetRetain(n int) {
	t.eng.Quiesce(func() {
		cur := make([]uint64, t.eng.NumShards())
		for si := range cur {
			cur[si] = t.eng.ShardEpoch(si)
		}
		t.hub.setRetain(n, cur)
	})
}

// Resume serves a reconnecting follower from its applied per-shard commit
// vector. Under one engine quiesce it checks the cursor against the
// retained ring and, when covered, collects the retained records after vec
// (in per-shard commit order), the primary's current vector and a tail
// subscription — the same atomicity Bootstrap gets, so replay then tail
// carries every record after vec exactly once. ok is false when the cursor
// predates retention (or runs ahead of the primary); the caller falls back
// to Bootstrap. A vector of the wrong length is an error.
func (t *TailSource) Resume(vec []uint64, buffer int) (replay []Record, cur []uint64, tr *TailReader, ok bool, err error) {
	if t.closed.Load() {
		return nil, nil, nil, false, fmt.Errorf("wal: resume after close")
	}
	if len(vec) != t.eng.NumShards() {
		return nil, nil, nil, false, fmt.Errorf("wal: resume vector has %d shards, engine has %d",
			len(vec), t.eng.NumShards())
	}
	t.eng.Quiesce(func() {
		if replay, cur, ok = t.hub.replayAfter(vec); ok {
			tr = t.hub.subscribe(buffer)
		}
	})
	return replay, cur, tr, ok, nil
}

// Close uninstalls the commit hook and drops every subscriber. A
// Manager's tail is closed by Manager.Close; closing it directly would
// detach the log as well.
func (t *TailSource) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	t.eng.Quiesce(func() { t.eng.SetBatchLog(nil) })
	t.hub.closeAll()
}

// EncodeRecord frames one batch exactly as the on-disk log does —
// [len u32][crc32 u32][payload] — reusing buf's backing array when it is
// large enough. The same framing is the replication wire format, so a
// shipped record round-trips through DecodeRecord byte-identically.
func EncodeRecord(buf []byte, b Batch) []byte { return encodeRecord(buf, b) }

// DecodeRecord decodes the framed record at the start of data, returning
// the batch and the total framed length consumed. ok is false for a torn,
// truncated or corrupt frame.
func DecodeRecord(data []byte, shards int) (Batch, int, bool) { return nextRecord(data, shards) }

// MarshalShardState appends the snapshot encoding of one shard's durable
// state (the per-shard block of the snapshot format) to dst. n is the
// engine's vertex count.
func MarshalShardState(dst []byte, n int, st ShardState) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, shardStateSize(n, st))...)
	putShardState(dst, off, n, st)
	return dst
}

// UnmarshalShardState decodes one shard-state block from the start of
// data, returning the state and the bytes consumed.
func UnmarshalShardState(data []byte, n int) (ShardState, int, error) {
	return getShardState(data, 0, len(data), n)
}
