// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table 1, Figs. 3–7) on the synthetic
// dataset stand-ins, printing the same rows/series the paper reports.
//
// Three "implementations" are compared, mirroring §7:
//
//   - CPLDS: the paper's data structure; reads use the linearizable
//     lock-free protocol and may run at any time.
//   - SyncReads: the synchronous baseline; reads generated during a batch
//     block until the batch completes (original PLDS, no stamps).
//   - NonSync: the unsynchronized baseline; reads return the instantaneous
//     live level (original PLDS, non-linearizable).
package bench

import (
	"sync"

	"kcore/internal/cplds"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/plds"
)

// Algo identifies one of the three evaluated implementations.
type Algo int

const (
	// CPLDS is the paper's concurrent parallel level data structure.
	CPLDS Algo = iota
	// SyncReads is the synchronous baseline (reads wait for the batch).
	SyncReads
	// NonSync is the unsynchronized, non-linearizable baseline.
	NonSync
)

// Algos lists all evaluated implementations in presentation order.
var Algos = []Algo{CPLDS, SyncReads, NonSync}

func (a Algo) String() string {
	switch a {
	case CPLDS:
		return "CPLDS"
	case SyncReads:
		return "SyncReads"
	default:
		return "NonSync"
	}
}

// engine abstracts the three implementations behind one update/read API.
type engine interface {
	InsertBatch(edges []graph.Edge) int
	DeleteBatch(edges []graph.Edge) int
	// Read returns a coreness estimate for v under the engine's protocol.
	Read(v uint32) float64
	// Snapshot returns the current graph (quiescent use only).
	Snapshot() *graph.Dynamic
}

// cpldsEngine: full CPLDS with linearizable reads.
type cpldsEngine struct{ c *cplds.CPLDS }

func (e *cpldsEngine) InsertBatch(edges []graph.Edge) int { return e.c.InsertBatch(edges) }
func (e *cpldsEngine) DeleteBatch(edges []graph.Edge) int { return e.c.DeleteBatch(edges) }
func (e *cpldsEngine) Read(v uint32) float64              { return e.c.Read(v) }
func (e *cpldsEngine) Snapshot() *graph.Dynamic           { return e.c.Graph() }

// nonsyncEngine: plain PLDS (no stamp overhead), unsynchronized reads.
type nonsyncEngine struct{ p *plds.PLDS }

func (e *nonsyncEngine) InsertBatch(edges []graph.Edge) int { return e.p.InsertBatch(edges) }
func (e *nonsyncEngine) DeleteBatch(edges []graph.Edge) int { return e.p.DeleteBatch(edges) }
func (e *nonsyncEngine) Read(v uint32) float64              { return e.p.Estimate(v) }
func (e *nonsyncEngine) Snapshot() *graph.Dynamic           { return e.p.Graph() }

// syncEngine: plain PLDS plus a batch-scoped write gate; reads issued
// mid-batch block until the batch completes (the paper's SyncReads).
type syncEngine struct {
	p    *plds.PLDS
	gate sync.RWMutex
}

func (e *syncEngine) InsertBatch(edges []graph.Edge) int {
	e.gate.Lock()
	defer e.gate.Unlock()
	return e.p.InsertBatch(edges)
}

func (e *syncEngine) DeleteBatch(edges []graph.Edge) int {
	e.gate.Lock()
	defer e.gate.Unlock()
	return e.p.DeleteBatch(edges)
}

func (e *syncEngine) Read(v uint32) float64 {
	e.gate.RLock()
	est := e.p.Estimate(v)
	e.gate.RUnlock()
	return est
}

func (e *syncEngine) Snapshot() *graph.Dynamic { return e.p.Graph() }

// newEngine constructs the engine for an algorithm over n vertices.
func newEngine(a Algo, n int, params lds.Params) engine {
	switch a {
	case CPLDS:
		return &cpldsEngine{c: cplds.New(n, params)}
	case SyncReads:
		return &syncEngine{p: plds.New(n, params, nil)}
	default:
		return &nonsyncEngine{p: plds.New(n, params, nil)}
	}
}
