package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
)

const (
	segMagic   = uint32(0x6b77616c) // "kwal"
	segVersion = uint32(2)          // 2: record epochs count only sub-batches that changed the graph
	segHdrLen  = 16
	frameLen   = 8 // [len u32][crc32 u32]

	flagIns = byte(1)
	flagDel = byte(2)
)

func segName(seq uint64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%d.seg", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// segLog is the segmented record log: one append-only file at a time,
// rotated by size (or by snapshots), with every record CRC-framed. All
// file I/O goes through fs, the injectable filesystem seam.
type segLog struct {
	dir       string
	fs        faultfs.FS
	n, shards int
	opt       Options

	mu       sync.Mutex
	f        faultfs.File
	seq      uint64           // sequence of the open segment
	size     int64            // bytes in the open segment
	sizes    map[uint64]int64 // bytes per closed-but-retained segment
	appended uint64
	retries  uint64 // append/fsync attempts retried after a transient error
	closed   bool

	lastSync atomic.Int64 // unix nanos of the last fsync (0 = never)
}

// encodeRecord frames one batch into buf (reused when large enough):
// [len][crc][shard u32][epoch u64][flags u8][insCount u32][ins…][delCount u32][del…].
func encodeRecord(buf []byte, b Batch) []byte {
	payload := 4 + 8 + 1 + 4 + 8*len(b.Ins) + 4 + 8*len(b.Del)
	need := frameLen + payload
	if cap(buf) < need {
		buf = make([]byte, need, need+need/2)
	} else {
		buf = buf[:need]
	}
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(payload))
	p := buf[frameLen:]
	le.PutUint32(p[0:], uint32(b.Shard))
	le.PutUint64(p[4:], b.Epoch)
	var flags byte
	if b.HasIns {
		flags |= flagIns
	}
	if b.HasDel {
		flags |= flagDel
	}
	p[12] = flags
	off := 13
	le.PutUint32(p[off:], uint32(len(b.Ins)))
	off += 4
	for _, e := range b.Ins {
		le.PutUint32(p[off:], e.U)
		le.PutUint32(p[off+4:], e.V)
		off += 8
	}
	le.PutUint32(p[off:], uint32(len(b.Del)))
	off += 4
	for _, e := range b.Del {
		le.PutUint32(p[off:], e.U)
		le.PutUint32(p[off+4:], e.V)
		off += 8
	}
	le.PutUint32(buf[4:], crc32.ChecksumIEEE(p))
	return buf
}

// decodeRecord parses one framed record payload (the CRC has already been
// verified). Every length is re-checked against the payload size, so a
// corrupt-but-CRC-colliding record cannot demand an unbounded allocation.
func decodeRecord(p []byte, shards int) (Batch, error) {
	le := binary.LittleEndian
	if len(p) < 13+4 {
		return Batch{}, fmt.Errorf("wal: record payload too short (%d bytes)", len(p))
	}
	var b Batch
	b.Shard = int(le.Uint32(p[0:]))
	if b.Shard < 0 || b.Shard >= shards {
		return Batch{}, fmt.Errorf("wal: record for shard %d of %d", b.Shard, shards)
	}
	b.Epoch = le.Uint64(p[4:])
	flags := p[12]
	b.HasIns = flags&flagIns != 0
	b.HasDel = flags&flagDel != 0
	off := 13
	readEdges := func() ([]graph.Edge, error) {
		if off+4 > len(p) {
			return nil, fmt.Errorf("wal: record truncated at edge count")
		}
		count := int(le.Uint32(p[off:]))
		off += 4
		if count < 0 || off+8*count > len(p) {
			return nil, fmt.Errorf("wal: record edge count %d exceeds payload", count)
		}
		edges := make([]graph.Edge, count)
		for i := range edges {
			edges[i] = graph.Edge{U: le.Uint32(p[off:]), V: le.Uint32(p[off+4:])}
			off += 8
		}
		return edges, nil
	}
	var err error
	if b.Ins, err = readEdges(); err != nil {
		return Batch{}, err
	}
	if b.Del, err = readEdges(); err != nil {
		return Batch{}, err
	}
	if off != len(p) {
		return Batch{}, fmt.Errorf("wal: %d trailing bytes in record", len(p)-off)
	}
	return b, nil
}

// listSegments returns the directory's segment sequences in ascending
// order.
func listSegments(fsys faultfs.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range entries {
		if seq, ok := parseSegName(ent.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// scanAndOpen replays every intact record of the directory's segments (in
// sequence order) through apply, handling a torn tail: the first invalid
// frame truncates its segment at the record boundary and deletes every
// later segment — the conservative prefix of the log is what recovery
// sees. An error from apply fails the scan, naming the segment. It returns
// the log opened for appending after the last intact record.
func scanAndOpen(dir string, n, shards int, opt Options, apply func(Batch) error) (*segLog, uint64, error) {
	fsys := opt.FS
	seqs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	l := &segLog{dir: dir, fs: fsys, n: n, shards: shards, opt: opt, sizes: make(map[uint64]int64)}
	var replayed uint64
	truncated := false
	for i, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		if truncated {
			// Everything after a torn record is a later, unreachable
			// suffix; drop it.
			fsys.Remove(path)
			continue
		}
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		if len(data) < segHdrLen {
			// A crash during segment creation can leave a headerless file,
			// but only as the very last segment.
			if i == len(seqs)-1 {
				fsys.Remove(path)
				truncated = true
				continue
			}
			return nil, 0, fmt.Errorf("wal: segment %s truncated mid-log (%d bytes)", path, len(data))
		}
		le := binary.LittleEndian
		if got := le.Uint32(data[0:]); got != segMagic {
			return nil, 0, fmt.Errorf("wal: %s: bad magic %#x", path, got)
		}
		if got := le.Uint32(data[4:]); got != segVersion {
			return nil, 0, fmt.Errorf("wal: %s: unsupported version %d", path, got)
		}
		if got := int(le.Uint32(data[8:])); got != n {
			return nil, 0, fmt.Errorf("wal: %s is for %d vertices, engine has %d", path, got, n)
		}
		if got := int(le.Uint32(data[12:])); got != shards {
			return nil, 0, fmt.Errorf("wal: %s is for %d shards, engine has %d", path, got, shards)
		}
		off := segHdrLen
		for off < len(data) {
			rec, n2, ok := nextRecord(data[off:], shards)
			if !ok {
				// Torn or corrupt: truncate here, drop later segments.
				if err := fsys.Truncate(path, int64(off)); err != nil {
					return nil, 0, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
				}
				truncated = true
				break
			}
			if err := apply(rec); err != nil {
				return nil, 0, fmt.Errorf("wal: %s: %w", path, err)
			}
			replayed++
			off += n2
		}
		end := int64(len(data))
		if truncated {
			end = 0 // recomputed below from the truncated file
			if fi, err := fsys.Stat(path); err == nil {
				end = fi.Size()
			}
		}
		l.sizes[seq] = end
	}
	// Open the last surviving segment for append, or start a fresh one.
	if len(l.sizes) > 0 {
		var last uint64
		for seq := range l.sizes {
			if seq > last {
				last = seq
			}
		}
		f, err := fsys.OpenFile(filepath.Join(dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: opening segment for append: %w", err)
		}
		l.f, l.seq, l.size = f, last, l.sizes[last]
		delete(l.sizes, last)
		return l, replayed, nil
	}
	if err := l.newSegment(1); err != nil {
		return nil, 0, err
	}
	return l, replayed, nil
}

// nextRecord decodes the record at the start of data, returning its total
// framed length. ok is false for a torn or corrupt frame.
func nextRecord(data []byte, shards int) (Batch, int, bool) {
	if len(data) < frameLen {
		return Batch{}, 0, false
	}
	le := binary.LittleEndian
	plen := int(le.Uint32(data[0:]))
	if plen < 0 || frameLen+plen > len(data) {
		return Batch{}, 0, false // length runs past the file: torn tail
	}
	payload := data[frameLen : frameLen+plen]
	if crc32.ChecksumIEEE(payload) != le.Uint32(data[4:]) {
		return Batch{}, 0, false
	}
	b, err := decodeRecord(payload, shards)
	if err != nil {
		return Batch{}, 0, false
	}
	return b, frameLen + plen, true
}

// newSegment creates and opens segment seq, writing its header. Caller
// holds mu (or owns the log exclusively). Any stale file at the target
// sequence (debris of an earlier failed re-attach) is removed first.
func (l *segLog) newSegment(seq uint64) error {
	path := filepath.Join(l.dir, segName(seq))
	l.fs.Remove(path)
	// O_APPEND keeps every write at the real EOF, so the truncate-repair
	// in writeRecordLocked lands the retried frame exactly where the
	// partial one was rolled back.
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [segHdrLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], segMagic)
	le.PutUint32(hdr[4:], segVersion)
	le.PutUint32(hdr[8:], uint32(l.n))
	le.PutUint32(hdr[12:], uint32(l.shards))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	l.f, l.seq, l.size = f, seq, segHdrLen
	return nil
}

// backoff sleeps before retry attempt k (1-based), doubling from
// Options.RetryBackoff and capped at 100ms. A zero backoff makes retries
// immediate (deterministic tests).
func (l *segLog) backoff(k int) {
	if l.opt.RetryBackoff <= 0 {
		return
	}
	d := l.opt.RetryBackoff << (k - 1)
	if max := 100 * time.Millisecond; d > max {
		d = max
	}
	time.Sleep(d)
}

// writeRecordLocked writes one framed record with bounded
// retries. A failed write may have persisted a prefix of the frame —
// bytes recovery would see as a torn record and truncate, taking every
// later record with them — so before each retry the segment is truncated
// back to its pre-record size and the whole frame is rewritten on a clean
// boundary. Caller holds mu.
func (l *segLog) writeRecordLocked(frame []byte) error {
	var err error
	for attempt := 0; attempt <= l.opt.AppendRetries; attempt++ {
		if attempt > 0 {
			l.retries++
			l.backoff(attempt)
			if terr := l.fs.Truncate(l.f.Name(), l.size); terr != nil {
				// The partial frame cannot be rolled back: the segment is
				// poisoned at this offset and retrying would bury later
				// records behind a torn one.
				return fmt.Errorf("wal: rolling back partial append: %w", terr)
			}
		}
		if _, err = l.f.Write(frame); err == nil {
			l.size += int64(len(frame))
			l.appended++
			return nil
		}
	}
	return fmt.Errorf("wal: appending record: %w", err)
}

// syncLocked fsyncs the open segment with bounded retries. Caller holds mu.
func (l *segLog) syncLocked() error {
	var err error
	for attempt := 0; attempt <= l.opt.AppendRetries; attempt++ {
		if attempt > 0 {
			l.retries++
			l.backoff(attempt)
		}
		if err = l.f.Sync(); err == nil {
			l.lastSync.Store(time.Now().UnixNano())
			return nil
		}
	}
	return fmt.Errorf("wal: fsync: %w", err)
}

// append writes one framed record (encodeRecord's output), applying the
// fsync policy and rotating the segment once it crosses the size
// threshold. Transient write/fsync errors are retried with backoff; the
// returned error means the retries are exhausted and the record is not
// durably logged.
func (l *segLog) append(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: append after close")
	}
	if err := l.writeRecordLocked(frame); err != nil {
		return err
	}
	switch l.opt.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return err
		}
	case SyncInterval:
		if time.Now().UnixNano()-l.lastSync.Load() >= int64(l.opt.SyncEvery) {
			if err := l.syncLocked(); err != nil {
				return err
			}
		}
	}
	if l.size >= l.opt.SegmentBytes {
		if _, err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotate closes the current segment and opens the next; it returns the new
// segment's sequence (everything below it is the closed prefix a snapshot
// covers).
func (l *segLog) rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rotateLocked()
}

func (l *segLog) rotateLocked() (uint64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: rotate after close")
	}
	if err := l.f.Sync(); err != nil {
		return 0, err
	}
	l.lastSync.Store(time.Now().UnixNano())
	if err := l.f.Close(); err != nil {
		return 0, err
	}
	l.sizes[l.seq] = l.size
	if err := l.newSegment(l.seq + 1); err != nil {
		return 0, err
	}
	return l.seq, nil
}

// reset abandons the current segment — its tail may hold a torn or
// non-durable record — and opens a fresh one at the next sequence. The
// abandoned segment joins the closed set so a following purge removes it.
// Unlike rotate it never fsyncs the old file: reset runs on the re-attach
// path, where the old segment is wedged by assumption. Returns the fresh
// segment's sequence.
func (l *segLog) reset() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: reset after close")
	}
	l.f.Close() // best-effort: the segment is already suspect
	l.sizes[l.seq] = l.size
	if err := l.newSegment(l.seq + 1); err != nil {
		// Leave the old (closed) file installed: appends keep failing and
		// the manager stays degraded until a later re-attach succeeds.
		delete(l.sizes, l.seq)
		return 0, err
	}
	return l.seq, nil
}

// purgeBefore deletes every closed segment with sequence < seq (called
// after a snapshot covering them is durable).
func (l *segLog) purgeBefore(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := range l.sizes {
		if s < seq {
			l.fs.Remove(filepath.Join(l.dir, segName(s)))
			delete(l.sizes, s)
		}
	}
}

// stats returns the segment count, total log bytes, appended records and
// retried attempts.
func (l *segLog) stats() (segments int, bytes int64, appended, retries uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segments = len(l.sizes) + 1
	bytes = l.size
	for _, sz := range l.sizes {
		bytes += sz
	}
	return segments, bytes, l.appended, l.retries
}

// close fsyncs and closes the open segment.
func (l *segLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
