package lds_test

import (
	"math"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/lds"
	"kcore/internal/plds"
)

func TestAgreesWithSequentialLDSOnGraph(t *testing.T) {
	// The PLDS and sequential LDS may settle vertices at different levels,
	// but both must satisfy the invariants on the same final graph and
	// yield estimates within the provable factor of each other.
	const n = 200
	prm := lds.DefaultParams()
	edges := gen.ErdosRenyi(n, 1500, 68)
	p := plds.New(n, prm, nil)
	p.InsertBatch(edges)
	l := lds.New(n, prm)
	for _, e := range edges {
		l.InsertEdge(e.U, e.V)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("plds: %v", err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("lds: %v", err)
	}
	bound := prm.ApproxFactor() * (1 + prm.Delta) // the provable bound of each side
	factor := bound * bound
	for v := uint32(0); v < n; v++ {
		pe, le := p.Estimate(v), l.Estimate(v)
		if r := math.Max(pe/le, le/pe); r > factor {
			t.Fatalf("vertex %d: plds est %.2f vs lds est %.2f", v, pe, le)
		}
	}
}
