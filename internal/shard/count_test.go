package shard

import (
	"sync/atomic"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/mvcc"
)

// TestCountersMatchGraphAtPublish wraps every shard's commit hook and, right
// after publish makes the commit's epoch readable, checks the edge counters
// against the local graph: a reader that waits for an epoch must not see
// the new levels with the old counts. The stream mixes insertions and
// deletions in one call, no-op edges and a vertex removal, at one and at
// three shards.
func TestCountersMatchGraphAtPublish(t *testing.T) {
	for _, p := range []int{1, 3} {
		const n, live, k, slides = 500, 1500, 50, 20
		ring := slidingWindow(n, 3000, 29)
		e := New(n, p, defaultP())
		var commits atomic.Int64
		for si, s := range e.shards {
			s.c.SetCommitHook(e.feedActive, func(d *mvcc.Delta, publish func()) {
				e.commit(s, d, func() {
					publish()
					commits.Add(1)
					checkCounters(t, e, si)
				})
			})
		}
		e.Insert(ring[:live])
		for i, head := 0, live; i < slides && !t.Failed(); i, head = i+1, head+k {
			ins := append(ring[head:head+k:head+k], graph.Edge{U: 3, V: 3}, ring[head])
			e.Apply(ins, ring[head-live:head-live+k])
		}
		e.RemoveVertex(ring[live].U)
		if t.Failed() {
			return
		}
		if got := uint64(commits.Load()); got != e.Epoch() {
			t.Fatalf("P=%d: %d commits checked, epoch %d", p, got, e.Epoch())
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

// checkCounters compares shard si's counters with its local graph, and the
// global edge count with the shards' owned counts. It runs inside si's
// commit hook, where the graph is quiet and, at P > 1, the vector log's
// lock orders it against every other shard's commit.
func checkCounters(t *testing.T, e *Engine, si int) {
	s := e.shards[si]
	g := s.c.Graph()
	var primary int64
	for _, ed := range g.Edges() {
		if e.ShardOf(ed.U) == si {
			primary++
		}
	}
	var global int64
	for _, o := range e.shards {
		global += o.primaryEdges.Load()
	}
	local, ins, del := s.localEdges.Load(), s.inserted.Load(), s.deleted.Load()
	if local != g.NumEdges() || ins-del != local || s.primaryEdges.Load() != primary || e.numEdges.Load() != global {
		t.Errorf("P=%d shard %d at epoch %d: local %d, inserted-deleted %d, primary %d, global %d; the graph has %d, %d owned, and the shards own %d",
			e.p, si, s.c.Epoch(), local, ins-del, s.primaryEdges.Load(), e.numEdges.Load(), g.NumEdges(), primary, global)
	}
}
