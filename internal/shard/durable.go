package shard

import (
	"fmt"

	"kcore/internal/wal"
)

// This file implements wal.Engine for the engine: batch logging at
// the commit boundary, whole-engine quiescence for snapshots, and
// per-shard capture/restore.

var _ wal.Engine = (*Engine)(nil)

// SetBatchLog installs fn, called synchronously inside each shard's
// one-updater section after every coalesced batch round commits — per
// shard, records are therefore produced in local commit order, which is
// the commit-vector order the multi-version vector log assigns to global
// epochs. The Batch's edge slices alias the round's coalescing buffers
// and are only valid for the duration of the call. Install before the
// engine serves updates (or under Quiesce); nil uninstalls.
func (e *Engine) SetBatchLog(fn func(wal.Batch)) { e.batchLog = fn }

// Quiesce runs f while every shard's apply lock is held (acquired in
// index order, so concurrent Quiesce calls cannot deadlock): no batch is
// in flight and none can start until f returns. Concurrent submissions
// queue as usual and drain after f.
func (e *Engine) Quiesce(f func()) {
	for _, s := range e.shards {
		s.applyMu.Lock()
	}
	defer func() {
		for _, s := range e.shards {
			s.applyMu.Unlock()
		}
	}()
	f()
}

// ApplyLogged re-applies one logged batch round to its shard with exactly
// the accounting of the live path. With P = 1 that is applyOne itself.
// With P > 1 (drainAndApplyLocked) presence and primary-ownership are
// evaluated against the pre-round graph, then the insert and delete
// sub-batches run in order. Single-threaded recovery use only.
func (e *Engine) ApplyLogged(b wal.Batch) {
	if e.p == 1 {
		e.applyOne(b)
		return
	}
	s := e.shards[b.Shard]
	g := s.c.Graph()
	for _, ed := range b.Ins {
		if e.ShardOf(ed.U) == b.Shard && !g.HasEdge(ed.U, ed.V) {
			e.numEdges.Add(1)
			s.primaryEdges.Add(1)
		}
	}
	for _, ed := range b.Del {
		if e.ShardOf(ed.U) == b.Shard && g.HasEdge(ed.U, ed.V) {
			e.numEdges.Add(-1)
			s.primaryEdges.Add(-1)
		}
	}
	if b.HasIns {
		applied := int64(s.c.InsertBatch(b.Ins))
		s.inserted.Add(applied)
		s.localEdges.Add(applied)
	}
	if b.HasDel {
		applied := int64(s.c.DeleteBatch(b.Del))
		s.deleted.Add(applied)
		s.localEdges.Add(-applied)
	}
	s.batches.Add(1)
}

// ShardDurable captures shard si's durable state: a CSR copy of its local
// subgraph, its levels, its local committed epoch and its cumulative
// counters. Must run inside a Quiesce section; the returned state is
// fully copied and stays valid after the section ends.
func (e *Engine) ShardDurable(si int) wal.ShardState {
	s := e.shards[si]
	st := wal.ShardState{
		Graph:    s.c.Graph().Snapshot(),
		Levels:   make([]int32, e.n),
		Epoch:    s.c.Epoch(),
		Batches:  s.batches.Load(),
		Inserted: s.inserted.Load(),
		Deleted:  s.deleted.Load(),
	}
	s.c.Levels(st.Levels)
	return st
}

// ShardEpoch returns shard si's local committed epoch (one atomic load;
// the cheap slice of ShardDurable the resume ring seeds from).
func (e *Engine) ShardEpoch(si int) uint64 { return e.shards[si].c.Epoch() }

// RestoreShard restores shard si from st: the shard's CPLDS is rebuilt
// from the snapshot, the cumulative counters are re-seeded, and the live
// edge counters (local, primary, global) are recomputed from the restored
// subgraph. Recovery calls it on a fresh engine before it serves traffic;
// replication bootstrap calls it on a live read-serving engine via
// RestoreAll (the CPLDS restore is reader-safe, and the global edge
// counter is adjusted by the delta against the shard's previous count).
func (e *Engine) RestoreShard(si int, st wal.ShardState) error {
	s := e.shards[si]
	if err := s.c.Restore(st.Graph, st.Levels, st.Epoch); err != nil {
		return fmt.Errorf("shard %d: %w", si, err)
	}
	s.batches.Store(st.Batches)
	s.inserted.Store(st.Inserted)
	s.deleted.Store(st.Deleted)
	var local, primary int64
	for _, ed := range s.c.Graph().Edges() {
		local++
		if e.ShardOf(ed.U) == si {
			primary++
		}
	}
	e.numEdges.Add(primary - s.primaryEdges.Swap(primary))
	s.localEdges.Store(local)
	return nil
}

// RestoreAll restores every shard from states inside one quiesce section
// and re-bases the multi-version bookkeeping on the restored epochs: each
// shard's delta store restarts empty (inside its CPLDS restore) and the
// cross-shard vector log, when retention is on, restarts at the restored
// commit vector. Safe on a live engine serving concurrent reads — this is
// the follower-side entry point for replication bootstrap. Updaters are
// excluded for the duration (they queue and drain after).
func (e *Engine) RestoreAll(states []wal.ShardState) error {
	if len(states) != e.p {
		return fmt.Errorf("shard: restore of %d shard states into %d shards", len(states), e.p)
	}
	var err error
	e.Quiesce(func() {
		for si, st := range states {
			if err = e.RestoreShard(si, st); err != nil {
				return
			}
		}
		if e.vlog != nil {
			counts := make([]uint64, e.p)
			for si, s := range e.shards {
				counts[si] = s.c.Epoch()
			}
			e.vlog.Reset(counts)
		}
		// Re-base the change-feed epoch counter (a no-op unless the feed
		// is on without retention) so post-restore events carry epochs
		// consistent with the restored commit vector.
		e.installCommitHooks()
	})
	return err
}
