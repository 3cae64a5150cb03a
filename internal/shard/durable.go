package shard

import (
	"fmt"

	"kcore/internal/wal"
)

// This file implements wal.Engine for the engine: batch logging at
// the commit boundary, whole-engine quiescence for snapshots, and
// per-shard capture/restore.

var _ wal.Engine = (*Engine)(nil)

// SetBatchLog installs fn, called synchronously after every committed
// round by the goroutine that ran it, under the apply lock: per shard,
// records are therefore produced in local commit order, which is the
// commit-vector order the multi-version vector log assigns to global
// epochs. Rounds of distinct shards of one call run in parallel, so fn
// must accept concurrent calls for distinct shards. The Batch's edge
// slices alias the round's buffers and are only valid for the duration of
// the call. Install before the engine serves updates (or under Quiesce);
// nil uninstalls.
func (e *Engine) SetBatchLog(fn func(wal.Batch)) { e.batchLog = fn }

// Quiesce runs f while the apply lock is held: no batch is in flight and
// none can start until f returns. Concurrent submissions wait and apply
// after f.
func (e *Engine) Quiesce(f func()) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	f()
}

// ApplyLogged re-applies one logged round to its shard through applyRound,
// the live path, so counters, epochs and levels come out as they did live.
// Single-threaded recovery, or inside Quiesce.
func (e *Engine) ApplyLogged(b wal.Batch) { e.applyRound(b) }

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
// from the snapshot (its delta store restarts empty), the cumulative
// counters are re-seeded, the live edge counters (local, primary, global)
// are recomputed from the restored subgraph, and with p > 1 the vector log
// is re-based on the restored commit vector. Recovery calls it on a fresh
// engine before it serves traffic; replication bootstrap calls it on a
// live read-serving engine via RestoreAll (the CPLDS restore is
// reader-safe, and the global edge counter is adjusted by the delta
// against the shard's previous count).
func (e *Engine) RestoreShard(si int, st wal.ShardState) error {
	s := e.shards[si]
	if err := s.c.Restore(st.Graph, st.Levels, st.Epoch); err != nil {
		return fmt.Errorf("shard %d: %w", si, err)
	}
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
	if e.p > 1 {
		e.vlog.Reset(e.shardEpochs())
	}
	return nil
}

// RestoreAll restores every shard from states inside one quiesce section
// (see RestoreShard). Safe on a live engine serving concurrent reads —
// this is the follower-side entry point for replication bootstrap.
// Updaters are excluded for the duration (they wait and apply after).
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
	})
	return err
}
