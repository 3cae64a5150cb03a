package lds

import (
	"fmt"

	"kcore/internal/graph"
)

// CheckInvariants verifies the two LDS invariants for an arbitrary level
// assignment over graph g, plus (when upFn is non-nil) that the cached up
// counters match a fresh count. Shared by the PLDS and CPLDS and by the
// sequential reference LDS of this package's tests.
func CheckInvariants(s *Structure, g *graph.Dynamic, levelFn func(uint32) int32, upFn func(uint32) int32) error {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		vv := uint32(v)
		lv := levelFn(vv)
		if lv < 0 || lv > s.MaxLevel() {
			return fmt.Errorf("vertex %d at invalid level %d", v, lv)
		}
		var upCnt, lowCnt int32
		g.Neighbors(vv, func(w uint32) bool {
			lw := levelFn(w)
			if lw >= lv {
				upCnt++
			}
			if lw >= lv-1 {
				lowCnt++
			}
			return true
		})
		if upFn != nil && upFn(vv) != upCnt {
			return fmt.Errorf("vertex %d: cached up=%d, actual %d", v, upFn(vv), upCnt)
		}
		if lv < s.MaxLevel() && float64(upCnt) > s.UpperBound(lv) {
			return fmt.Errorf("vertex %d at level %d violates Invariant 1: up=%d > %.2f",
				v, lv, upCnt, s.UpperBound(lv))
		}
		if lv > 0 && float64(lowCnt) < s.LowerBound(lv) {
			return fmt.Errorf("vertex %d at level %d violates Invariant 2: cnt=%d < %.2f",
				v, lv, lowCnt, s.LowerBound(lv))
		}
	}
	return nil
}
