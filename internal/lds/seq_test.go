package lds

import "kcore/internal/graph"

// LDS is the sequential level data structure. It maintains a level for
// every vertex under single edge insertions and deletions such that both
// invariants hold after every operation, yielding a
// (2+3/λ)(1+δ)-approximate coreness estimate per vertex.
//
// It is the paper's reference structure and lives in the tests only: the
// parallel PLDS is checked against it, and the invariant checker is
// checked on it. It is not safe for concurrent use.
type LDS struct {
	S     *Structure
	g     *graph.Dynamic
	level []int32
	up    []int32 // up[v] = |{w ∈ N(v) : level[w] >= level[v]}|
}

// New returns an empty LDS over n vertices with the given parameters.
func New(n int, p Params) *LDS {
	s := NewStructure(n, p)
	return &LDS{
		S:     s,
		g:     graph.NewDynamic(n),
		level: make([]int32, n),
		up:    make([]int32, n),
	}
}

// NumVertices returns the number of vertices.
func (l *LDS) NumVertices() int { return len(l.level) }

// Graph exposes the underlying dynamic graph (read-only use).
func (l *LDS) Graph() *graph.Dynamic { return l.g }

// Level returns the current level of v.
func (l *LDS) Level(v uint32) int32 { return l.level[v] }

// Estimate returns the coreness estimate of v.
func (l *LDS) Estimate(v uint32) float64 {
	return l.S.EstimateFromLevel(l.level[v])
}

// countAtLeast returns |{w ∈ N(v) : level[w] >= x}|.
func (l *LDS) countAtLeast(v uint32, x int32) int32 {
	var c int32
	l.g.Neighbors(v, func(w uint32) bool {
		if l.level[w] >= x {
			c++
		}
		return true
	})
	return c
}

// countAt returns |{w ∈ N(v) : level[w] == x}|.
func (l *LDS) countAt(v uint32, x int32) int32 {
	var c int32
	l.g.Neighbors(v, func(w uint32) bool {
		if l.level[w] == x {
			c++
		}
		return true
	})
	return c
}

// violatesInv1 reports whether v breaks the degree upper bound at its
// current level.
func (l *LDS) violatesInv1(v uint32) bool {
	lv := l.level[v]
	if lv >= l.S.MaxLevel() {
		return false
	}
	return float64(l.up[v]) > l.S.UpperBound(lv)
}

// violatesInv2 reports whether v breaks the degree lower bound at its
// current level.
func (l *LDS) violatesInv2(v uint32) bool {
	lv := l.level[v]
	if lv == 0 {
		return false
	}
	cnt := l.up[v] + l.countAt(v, lv-1)
	return float64(cnt) < l.S.LowerBound(lv)
}

// moveUp raises v one level, maintaining the up counters of v and its
// neighbours, and returns the neighbours whose up counter grew (the only
// vertices whose Invariant 1 status can have changed).
func (l *LDS) moveUp(v uint32) []uint32 {
	old := l.level[v]
	nw := old + 1
	var touched []uint32
	l.g.Neighbors(v, func(w uint32) bool {
		if l.level[w] == nw {
			l.up[w]++
			touched = append(touched, w)
		}
		return true
	})
	l.up[v] -= l.countAt(v, old)
	l.level[v] = nw
	return touched
}

// moveDown lowers v one level, maintaining up counters, and returns the
// neighbours whose Invariant 2 counts may have dropped.
func (l *LDS) moveDown(v uint32) []uint32 {
	old := l.level[v]
	nw := old - 1
	var touched []uint32
	l.g.Neighbors(v, func(w uint32) bool {
		switch l.level[w] {
		case old:
			// v leaves w's up set (w at old: v drops below).
			l.up[w]--
			touched = append(touched, w)
		case old + 1:
			// v leaves w's Z_{ℓ(w)-1} set: Invariant 2 risk for w.
			touched = append(touched, w)
		}
		return true
	})
	l.up[v] += l.countAt(v, nw)
	l.level[v] = nw
	return touched
}

// fixup restores both invariants starting from the given dirty vertices.
func (l *LDS) fixup(dirty []uint32) {
	work := append([]uint32(nil), dirty...)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			if l.violatesInv1(v) {
				work = append(work, l.moveUp(v)...)
			} else if l.violatesInv2(v) {
				work = append(work, l.moveDown(v)...)
			} else {
				break
			}
		}
	}
}

// InsertEdge inserts the undirected edge (u, v) and restores the
// invariants. Duplicate edges and self-loops are no-ops returning false.
func (l *LDS) InsertEdge(u, v uint32) bool {
	if u == v || l.g.HasEdge(u, v) {
		return false
	}
	fresh := l.g.InsertEdges([]graph.Edge{{U: u, V: v}})
	if len(fresh) == 0 {
		return false
	}
	if l.level[v] >= l.level[u] {
		l.up[u]++
	}
	if l.level[u] >= l.level[v] {
		l.up[v]++
	}
	l.fixup([]uint32{u, v})
	return true
}

// DeleteEdge removes the undirected edge (u, v) and restores the
// invariants. Missing edges are no-ops returning false.
func (l *LDS) DeleteEdge(u, v uint32) bool {
	if u == v || !l.g.HasEdge(u, v) {
		return false
	}
	l.g.DeleteEdges([]graph.Edge{{U: u, V: v}})
	if l.level[v] >= l.level[u] {
		l.up[u]--
	}
	if l.level[u] >= l.level[v] {
		l.up[v]--
	}
	l.fixup([]uint32{u, v})
	return true
}

// CheckInvariants verifies both LDS invariants and the up-counter cache for
// every vertex, returning a descriptive error on the first violation.
func (l *LDS) CheckInvariants() error {
	return CheckInvariants(l.S, l.g, func(v uint32) int32 { return l.level[v] }, func(v uint32) int32 { return l.up[v] })
}
