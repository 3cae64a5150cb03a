package kcore

import (
	"sync"
	"testing"
)

// TestWithShardsPublicAPI exercises the sharded decomposition through the
// public API: concurrent mixed batches from several goroutines, reads
// routed to owning shards, and the quiescent helpers.
func TestWithShardsPublicAPI(t *testing.T) {
	const n = 300
	d, err := New(n, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", d.Shards())
	}

	// Concurrent writers: each inserts a disjoint path.
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint32(w * 100)
			edges := make([]Edge, 0, 99)
			for i := uint32(0); i < 99; i++ {
				edges = append(edges, Edge{U: base + i, V: base + i + 1})
			}
			if got := d.InsertEdges(edges); got != 99 {
				t.Errorf("writer %d inserted %d, want 99", w, got)
			}
		}(w)
	}
	wg.Wait()
	if got := d.NumEdges(); got != 297 {
		t.Fatalf("NumEdges = %d, want 297", got)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}

	// Path interiors have coreness 1; estimates must be ≥ 1 under every
	// read protocol.
	for _, v := range []uint32{1, 101, 201} {
		for name, read := range map[string]func(uint32) float64{
			"linearizable": d.Coreness,
			"nonsync":      d.CorenessNonLinearizable,
			"blocking":     d.CorenessBlocking,
		} {
			if est := read(v); est < 1 {
				t.Fatalf("%s read of %d = %v, want >= 1", name, v, est)
			}
		}
	}

	// Mixed batch with an insert+delete pair: inserted, then deleted, as
	// with one shard.
	ins, del := d.ApplyBatch([]Edge{{U: 0, V: 2}, {U: 10, V: 12}}, []Edge{{U: 10, V: 12}})
	if ins != 2 || del != 1 {
		t.Fatalf("ApplyBatch = (%d,%d), want (2,1)", ins, del)
	}

	// Exact coreness of the reassembled global graph: a path has max core 1,
	// plus the (0,1,2) triangle closed above has core 2.
	core := d.ExactCoreness()
	if core[1] != 2 {
		t.Fatalf("exact coreness of vertex 1 = %d, want 2", core[1])
	}

	if got := d.Degree(1); got != 2 {
		t.Fatalf("Degree(1) = %d, want 2", got)
	}
	if removed := d.RemoveVertex(1); removed != 2 {
		t.Fatalf("RemoveVertex(1) removed %d, want 2", removed)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestShardStatsPublicAPI exercises the per-shard load-stats surface in
// both engine modes.
func TestShardStatsPublicAPI(t *testing.T) {
	// Sharded mode: entries per shard, sums consistent with the globals.
	d, err := New(200, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]Edge, 0, 199)
	for i := uint32(0); i < 199; i++ {
		edges = append(edges, Edge{U: i, V: i + 1})
	}
	d.InsertEdges(edges)
	stats := d.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats has %d entries, want 4", len(stats))
	}
	var owned int
	var primary int64
	for _, s := range stats {
		owned += s.OwnedVertices
		primary += s.PrimaryEdges
	}
	if owned != d.NumVertices() {
		t.Fatalf("owned sum %d != %d", owned, d.NumVertices())
	}
	if primary != d.NumEdges() {
		t.Fatalf("primary sum %d != NumEdges %d", primary, d.NumEdges())
	}

	// One shard: one entry covering everything.
	s1, err := New(50)
	if err != nil {
		t.Fatal(err)
	}
	s1.InsertEdges([]Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	stats = s1.ShardStats()
	if len(stats) != 1 {
		t.Fatalf("one-shard ShardStats has %d entries", len(stats))
	}
	if stats[0].OwnedVertices != 50 || stats[0].LocalEdges != 2 || stats[0].Batches != 1 {
		t.Fatalf("one-shard stats %+v", stats[0])
	}
	if stats[0].Inserted != 2 || stats[0].Deleted != 0 {
		t.Fatalf("one-shard cumulative counters %+v", stats[0])
	}
	s1.DeleteEdges([]Edge{{U: 0, V: 1}})
	if got := s1.ShardStats()[0]; got.Deleted != 1 || got.LocalEdges != 1 {
		t.Fatalf("one-shard stats after delete %+v", got)
	}
}
