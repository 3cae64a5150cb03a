package wal_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/shard"
	"kcore/internal/wal"
)

// TestRecoveryRejectsRecordMissingItsEpoch: every logged record changed its
// shard's graph, so replaying it must land the shard on the record's epoch.
// A forged record that skips an epoch fails recovery with an error naming
// the segment, the shard and both epochs, instead of replaying the log
// under epochs its records do not hold.
func TestRecoveryRejectsRecordMissingItsEpoch(t *testing.T) {
	params := lds.Params{Delta: 0.2, Lambda: 9}
	dir := t.TempDir()
	eng := shard.New(8, 1, params)
	m, err := wal.Open(dir, eng, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Insert([]graph.Edge{{U: 0, V: 1}})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s (%v)", dir, err)
	}
	seg := segs[len(segs)-1]
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	forged := wal.Batch{Shard: 0, Epoch: eng.ShardEpoch(0) + 2, Ins: []graph.Edge{{U: 2, V: 3}}}
	if _, err := f.Write(wal.EncodeRecord(nil, forged)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m, err = wal.Open(dir, shard.New(8, 1, params), wal.Options{})
	if err == nil {
		m.Close()
		t.Fatal("recovery replayed a record that skips an epoch")
	}
	for _, want := range []string{filepath.Base(seg), "shard 0", "epoch 2", "epoch 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("recovery error %q does not name %q", err, want)
		}
	}
}
