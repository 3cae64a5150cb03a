// Package replica implements read replicas by deterministic batch-log
// shipping: a primary-side Feeder streams a consistent engine capture
// followed by the live committed-batch stream to any number of followers,
// and a follower-side runtime applies that stream through the engine's
// normal batch path. Replay parity (same batch stream ⇒ byte-identical
// state, the property the trace and recovery tests pin down) is what makes
// this correct: a follower that bootstraps from the captured state and
// applies every later record in per-shard commit order converges to
// exactly the primary's levels, graph and epoch — so its read stack
// (views, pinned reads, top-k) serves answers byte-identical to the
// primary's at the same commit vector.
//
// # Protocol
//
// A follower issues GET /replicate/stream against the primary's
// replication listener and receives one long-lived response body:
//
//	stream header: magic u32, version u32, vertices u32, shards u32,
//	               stream id u64 (a per-boot random identity of the
//	               primary process — see Resume)
//	frames:        [type u8][len u32][payload], little-endian
//
//	frameState     one shard's durable state: shard u32 + the snapshot
//	               shard-state block (wal.MarshalShardState)
//	frameEnd       end of bootstrap: the captured per-shard commit vector
//	               ([shards]u64) — apply the states, then go live
//	frameRecord    one committed batch: the record bytes the primary encoded
//	               once at commit and the on-disk WAL stores (wal.Record's
//	               Frame); per-shard order = commit order
//	frameHeartbeat the shipped per-shard commit vector ([shards]u64),
//	               sent when the stream is otherwise idle; carries
//	               liveness and lets the follower measure lag
//
// # Resume
//
// A follower that already holds an applied state does not need the
// snapshot again — it needs exactly the batches after its applied commit
// vector. The primary retains a bounded in-memory ring of the newest
// committed records (FeederOptions.RetainBatches, wal.TailSource.SetRetain)
// with a per-shard low-water vector that advances as the ring evicts. A
// reconnecting follower POSTs /replicate/stream with a fixed-size body —
// the same identification header (carrying the stream id it learned from
// the connection it is resuming) followed by its applied per-shard commit
// vector ([shards]u64) — and the primary answers on the response stream:
//
//	frameResumeOK    the cursor is covered by retention: payload is the
//	                 primary's current commit vector; the retained records
//	                 after the cursor follow as ordinary frameRecords,
//	                 spliced into the live tail with no gap and no overlap
//	                 (replay capture + tail subscription happen inside one
//	                 engine quiesce, wal.TailSource.Resume — the same
//	                 atomicity Bootstrap gets)
//	frameResumeStale the request's stream id is not this primary's (the
//	                 primary restarted — see below), some shard's cursor
//	                 predates the low-water mark (the ring evicted past
//	                 it), runs ahead of the primary, or retention is
//	                 disabled; the stream ends and the follower falls back
//	                 to a full GET bootstrap — stale is a fallback, not an
//	                 error
//
// The stream id is what gives a cursor an identity beyond its epoch
// numbers. A record is published after the WAL append, but a degraded
// primary keeps committing and shipping without the disk, and under the
// none/interval fsync policies an appended record may live only in a page
// cache a machine crash loses — so a primary that crashes and recovers can
// re-commit *different* batches under epochs a follower already applied.
// A bare epoch vector from before the crash can therefore look resumable
// against the recovered primary's ring while naming a divergent history.
// Each primary process draws a random stream id at feeder construction and
// stamps every stream header with it; a resume request carries the id of
// the stream the cursor came from, and an id mismatch is answered
// frameResumeStale regardless of the epochs — the follower re-bootstraps
// and converges on the survivor history.
//
// The follower only resumes within one process lifetime (the applied
// vector is not persisted): a restarted follower's engine state cannot be
// trusted to match any vector, so the first connection always bootstraps.
// A primary that predates resume answers the POST with 405 and the
// follower likewise falls back.
package replica

import (
	"encoding/binary"
	"fmt"
	"io"

	"kcore/internal/wal"
)

const (
	streamMagic   = uint32(0x6b72706c) // "krpl"
	streamVersion = uint32(3)          // 3: record epochs count only sub-batches that changed the graph
	streamHdrLen  = 24

	frameHdrLen = 5 // [type u8][len u32]

	frameState       = byte(1)
	frameEnd         = byte(2)
	frameRecord      = byte(3)
	frameHeartbeat   = byte(4)
	frameResumeOK    = byte(5) // resume accepted: payload = primary's commit vector
	frameResumeStale = byte(6) // cursor outside retention or from another primary boot: empty payload, stream ends

	// maxFrameLen bounds a frame's claimed payload length before the
	// follower allocates for it: a corrupt or hostile length field can
	// only fail the connection, never demand an unbounded allocation.
	// State frames carry a whole shard (graph + levels), so the bound is
	// generous.
	maxFrameLen = 1 << 30
)

// StreamPath is the HTTP path a follower requests on the primary's
// replication listener.
const StreamPath = "/replicate/stream"

// InfoPath serves a small JSON diagnostic block (vertex/shard counts,
// feeder counters) next to the stream endpoint.
const InfoPath = "/replicate/info"

// KickPath drops every connected follower (POST). Followers reconnect and
// resume from their applied vector, so a kick is cheap — it exists so
// operators and the smoke script can force a deterministic
// reconnect/resume cycle without waiting out TCP timeouts.
const KickPath = "/replicate/kick"

// putStreamHeader encodes the identification header into hdr. In a
// response stream id is the primary's per-boot stream id; in a resume
// request it is the id of the stream the follower's cursor came from.
func putStreamHeader(hdr *[streamHdrLen]byte, n, shards int, id uint64) {
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], streamMagic)
	le.PutUint32(hdr[4:], streamVersion)
	le.PutUint32(hdr[8:], uint32(n))
	le.PutUint32(hdr[12:], uint32(shards))
	le.PutUint64(hdr[16:], id)
}

// writeStreamHeader writes the 24-byte stream identification header.
func writeStreamHeader(w io.Writer, n, shards int, id uint64) error {
	var hdr [streamHdrLen]byte
	putStreamHeader(&hdr, n, shards, id)
	_, err := w.Write(hdr[:])
	return err
}

// readStreamHeader reads and validates the stream header against the
// reader's engine shape, returning the stream id. A shape mismatch is a
// configuration error, not a transient fault; the id is not validated
// here — identity checks belong to the resume handshake.
func readStreamHeader(r io.Reader, n, shards int) (uint64, error) {
	var hdr [streamHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("replica: reading stream header: %w", err)
	}
	le := binary.LittleEndian
	if got := le.Uint32(hdr[0:]); got != streamMagic {
		return 0, fmt.Errorf("replica: bad stream magic %#x", got)
	}
	if got := le.Uint32(hdr[4:]); got != streamVersion {
		return 0, fmt.Errorf("replica: unsupported stream version %d", got)
	}
	if got := int(le.Uint32(hdr[8:])); got != n {
		return 0, fmt.Errorf("replica: primary has %d vertices, follower has %d", got, n)
	}
	if got := int(le.Uint32(hdr[12:])); got != shards {
		return 0, fmt.Errorf("replica: primary has %d shards, follower has %d", got, shards)
	}
	return le.Uint64(hdr[16:]), nil
}

// appendResumeRequest builds the POST body a resuming follower sends: the
// 24-byte identification header (carrying the cursor's stream id) followed
// by its applied per-shard commit vector. Fixed size, so the primary can
// read it with one ReadFull.
func appendResumeRequest(dst []byte, n, shards int, id uint64, vec []uint64) []byte {
	var hdr [streamHdrLen]byte
	putStreamHeader(&hdr, n, shards, id)
	dst = append(dst, hdr[:]...)
	return appendVector(dst, vec)
}

// readResumeRequest validates a resume request body against the primary's
// shape and decodes the follower's applied commit vector into vec,
// returning the stream id the cursor was minted under. The caller compares
// that id against its own: a mismatch means the cursor names a different
// primary incarnation's history and must be answered frameResumeStale.
func readResumeRequest(r io.Reader, n, shards int, vec []uint64) (uint64, error) {
	id, err := readStreamHeader(r, n, shards)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 8*shards)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, fmt.Errorf("replica: reading resume vector: %w", err)
	}
	return id, parseVector(buf, vec)
}

// appendFrame appends one framed payload to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [frameHdrLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame reads one frame, reusing buf for the payload when it fits.
func readFrame(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ = hdr[0]
	plen := int(binary.LittleEndian.Uint32(hdr[1:]))
	if plen > maxFrameLen {
		return 0, nil, fmt.Errorf("replica: frame of %d bytes exceeds limit", plen)
	}
	if cap(buf) < plen {
		buf = make([]byte, plen)
	} else {
		buf = buf[:plen]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("replica: reading %d-byte frame payload: %w", plen, err)
	}
	return typ, buf, nil
}

// appendVector appends the per-shard commit vector as [len(vec)]u64.
func appendVector(dst []byte, vec []uint64) []byte {
	le := binary.LittleEndian
	off := len(dst)
	dst = append(dst, make([]byte, 8*len(vec))...)
	for i, e := range vec {
		le.PutUint64(dst[off+8*i:], e)
	}
	return dst
}

// parseVector decodes a commit-vector payload into dst.
func parseVector(payload []byte, dst []uint64) error {
	if len(payload) != 8*len(dst) {
		return fmt.Errorf("replica: vector payload of %d bytes for %d shards", len(payload), len(dst))
	}
	le := binary.LittleEndian
	for i := range dst {
		dst[i] = le.Uint64(payload[8*i:])
	}
	return nil
}

// parseStateFrame decodes a frameState payload: shard index + state block.
func parseStateFrame(payload []byte, n, shards int) (int, wal.ShardState, error) {
	if len(payload) < 4 {
		return 0, wal.ShardState{}, fmt.Errorf("replica: state frame of %d bytes", len(payload))
	}
	si := int(binary.LittleEndian.Uint32(payload))
	if si < 0 || si >= shards {
		return 0, wal.ShardState{}, fmt.Errorf("replica: state frame for shard %d of %d", si, shards)
	}
	st, used, err := wal.UnmarshalShardState(payload[4:], n)
	if err != nil {
		return 0, wal.ShardState{}, fmt.Errorf("replica: shard %d state: %w", si, err)
	}
	if used != len(payload)-4 {
		return 0, wal.ShardState{}, fmt.Errorf("replica: %d trailing bytes in shard %d state frame",
			len(payload)-4-used, si)
	}
	return si, st, nil
}
