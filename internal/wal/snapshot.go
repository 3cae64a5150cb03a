package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"

	"kcore/internal/faultfs"
	"kcore/internal/graph"
)

const (
	snapMagic   = uint32(0x6b736e70) // "ksnp"
	snapVersion = uint32(1)
	snapHdrLen  = 16
)

func snapName(globalEpoch uint64) string { return fmt.Sprintf("snap-%020d.ksnp", globalEpoch) }

// parseSnapName extracts the global epoch from a snapshot file name.
func parseSnapName(name string) (uint64, bool) {
	var ep uint64
	if _, err := fmt.Sscanf(name, "snap-%d.ksnp", &ep); err != nil {
		return 0, false
	}
	return ep, true
}

// shardStateSize returns the encoded size of one shard-state block.
func shardStateSize(n int, st ShardState) int {
	return 40 + 4*n + 4*len(st.Graph.Targets) + 4*n
}

// putShardState encodes one shard-state block — epoch u64, epoch again
// u64 (the slot of a retired batch counter, kept so the format does not
// change), inserted i64, deleted i64, targetsLen u64, degrees [n]u32,
// targets [targetsLen]u32, levels [n]i32 — into buf at off, returning the
// offset past the block. buf must have room (shardStateSize).
func putShardState(buf []byte, off, n int, st ShardState) int {
	le := binary.LittleEndian
	le.PutUint64(buf[off:], st.Epoch)
	le.PutUint64(buf[off+8:], st.Epoch)
	le.PutUint64(buf[off+16:], uint64(st.Inserted))
	le.PutUint64(buf[off+24:], uint64(st.Deleted))
	le.PutUint64(buf[off+32:], uint64(len(st.Graph.Targets)))
	off += 40
	for v := 0; v < n; v++ {
		le.PutUint32(buf[off:], uint32(st.Graph.Offsets[v+1]-st.Graph.Offsets[v]))
		off += 4
	}
	for _, t := range st.Graph.Targets {
		le.PutUint32(buf[off:], t)
		off += 4
	}
	for _, l := range st.Levels {
		le.PutUint32(buf[off:], uint32(l))
		off += 4
	}
	return off
}

// getShardState decodes one shard-state block from buf[pos:end], skipping
// the retired batch-counter slot (see putShardState). Every length is
// bounds-checked against end before use, so corrupt input can only fail
// the read, never demand an oversized allocation.
func getShardState(buf []byte, pos, end, n int) (ShardState, int, error) {
	le := binary.LittleEndian
	if pos+40 > end {
		return ShardState{}, pos, fmt.Errorf("wal: shard state truncated in header")
	}
	st := ShardState{
		Epoch:    le.Uint64(buf[pos:]),
		Inserted: int64(le.Uint64(buf[pos+16:])),
		Deleted:  int64(le.Uint64(buf[pos+24:])),
	}
	targetsLen := le.Uint64(buf[pos+32:])
	pos += 40
	need := 4*n + 4*int(targetsLen) + 4*n
	if targetsLen > uint64(end) || pos+need > end {
		return ShardState{}, pos, fmt.Errorf("wal: shard state block exceeds input")
	}
	offsets := make([]int64, n+1)
	var total int64
	for v := 0; v < n; v++ {
		offsets[v] = total
		total += int64(le.Uint32(buf[pos:]))
		pos += 4
	}
	offsets[n] = total
	if total != int64(targetsLen) {
		return ShardState{}, pos, fmt.Errorf("wal: shard state degrees sum %d != targets %d", total, targetsLen)
	}
	targets := make([]uint32, targetsLen)
	for i := range targets {
		targets[i] = le.Uint32(buf[pos:])
		pos += 4
	}
	levels := make([]int32, n)
	for v := range levels {
		levels[v] = int32(le.Uint32(buf[pos:]))
		pos += 4
	}
	st.Graph = &graph.CSR{Offsets: offsets, Targets: targets}
	st.Levels = levels
	return st, pos, nil
}

// writeSnapshot serializes the per-shard durable states to a temp file,
// fsyncs it and renames it into place, so a crash mid-write can never
// damage an existing snapshot. Layout: 16-byte identification header, one
// shard-state block per shard (see putShardState), then a trailing CRC32
// over everything before it.
func writeSnapshot(fsys faultfs.FS, dir string, n, shards int, states []ShardState) error {
	le := binary.LittleEndian
	size := snapHdrLen + 4 // header + trailing CRC
	for _, st := range states {
		size += shardStateSize(n, st)
	}
	buf := make([]byte, size)
	le.PutUint32(buf[0:], snapMagic)
	le.PutUint32(buf[4:], snapVersion)
	le.PutUint32(buf[8:], uint32(n))
	le.PutUint32(buf[12:], uint32(shards))
	off := snapHdrLen
	var global uint64
	for _, st := range states {
		global += st.Epoch
		off = putShardState(buf, off, n, st)
	}
	le.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))

	tmp, err := fsys.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: creating snapshot temp file: %w", err)
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), filepath.Join(dir, snapName(global))); err != nil {
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	return nil
}

// readSnapshot parses and CRC-validates one snapshot file. Every length is
// bounds-checked against the actual file size before use, so a corrupt
// header can only fail the read, never demand an oversized allocation.
func readSnapshot(fsys faultfs.FS, path string, n, shards int) ([]ShardState, error) {
	buf, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if len(buf) < snapHdrLen+4 {
		return nil, fmt.Errorf("wal: snapshot %s too short (%d bytes)", path, len(buf))
	}
	crcOff := len(buf) - 4
	if crc32.ChecksumIEEE(buf[:crcOff]) != le.Uint32(buf[crcOff:]) {
		return nil, fmt.Errorf("wal: snapshot %s fails checksum", path)
	}
	if got := le.Uint32(buf[0:]); got != snapMagic {
		return nil, fmt.Errorf("wal: snapshot %s: bad magic %#x", path, got)
	}
	if got := le.Uint32(buf[4:]); got != snapVersion {
		return nil, &configMismatchError{fmt.Sprintf("wal: snapshot %s: unsupported version %d", path, got)}
	}
	if got := int(le.Uint32(buf[8:])); got != n {
		return nil, &configMismatchError{fmt.Sprintf("wal: snapshot %s is for %d vertices, engine has %d", path, got, n)}
	}
	if got := int(le.Uint32(buf[12:])); got != shards {
		return nil, &configMismatchError{fmt.Sprintf("wal: snapshot %s is for %d shards, engine has %d", path, got, shards)}
	}
	pos := snapHdrLen
	states := make([]ShardState, shards)
	for si := range states {
		st, next, err := getShardState(buf, pos, crcOff, n)
		if err != nil {
			return nil, fmt.Errorf("wal: snapshot %s: shard %d: %w", path, si, err)
		}
		states[si] = st
		pos = next
	}
	if pos != crcOff {
		return nil, fmt.Errorf("wal: snapshot %s: %d trailing bytes", path, crcOff-pos)
	}
	return states, nil
}

// listSnapshots returns the directory's snapshot epochs, newest first.
func listSnapshots(fsys faultfs.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var eps []uint64
	for _, ent := range entries {
		if ep, ok := parseSnapName(ent.Name()); ok {
			eps = append(eps, ep)
		}
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i] > eps[j] })
	return eps, nil
}

// restoreNewestSnapshot restores eng from the newest snapshot that
// validates, filling vec with the restored per-shard epoch vector. A
// snapshot that fails its checksum (crash or bit rot) falls back to the
// next older one; no snapshot at all restores nothing (vec stays zero).
// Returns the global epoch of the restored snapshot (0 = none).
func restoreNewestSnapshot(fsys faultfs.FS, dir string, eng Engine, vec []uint64) (uint64, error) {
	eps, err := listSnapshots(fsys, dir)
	if err != nil {
		return 0, fmt.Errorf("wal: listing snapshots in %s: %w", dir, err)
	}
	for _, ep := range eps {
		path := filepath.Join(dir, snapName(ep))
		states, err := readSnapshot(fsys, path, eng.NumVertices(), eng.NumShards())
		if err != nil {
			// Config mismatches are hard errors; a failed checksum or torn
			// file falls back to the next older snapshot.
			if isConfigMismatch(err) {
				return 0, err
			}
			continue
		}
		for si, st := range states {
			if err := eng.RestoreShard(si, st); err != nil {
				return 0, fmt.Errorf("wal: restoring shard %d from %s: %w", si, path, err)
			}
			vec[si] = st.Epoch
		}
		return ep, nil
	}
	return 0, nil
}

// configMismatchError marks snapshot/engine shape disagreements (vertex
// count, shard count, format version), which must fail recovery loudly
// instead of silently falling back to an older snapshot or starting empty.
type configMismatchError struct{ msg string }

func (e *configMismatchError) Error() string { return e.msg }

func isConfigMismatch(err error) bool {
	var cm *configMismatchError
	return errors.As(err, &cm)
}

// pruneSnapshots removes all snapshots older than the one at keepEpoch.
func pruneSnapshots(fsys faultfs.FS, dir string, keepEpoch uint64) {
	eps, err := listSnapshots(fsys, dir)
	if err != nil {
		return
	}
	for _, ep := range eps {
		if ep < keepEpoch {
			fsys.Remove(filepath.Join(dir, snapName(ep)))
		}
	}
}
