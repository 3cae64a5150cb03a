// Package lds holds the level-structure parameters and the invariant
// checker of the Level Data Structure (LDS) of Bhattacharya et al. and
// Henzinger et al., with the parameterization and (2+ε)-approximation
// analysis of Liu et al. (SPAA 2022), shared by the parallel (PLDS) and
// concurrent (CPLDS) variants. The sequential reference LDS is test-only.
//
// The LDS partitions vertices into K = O(log² n) levels organized into
// O(log n) groups of 4⌈log_{1+δ} n⌉ levels each. Two invariants are
// maintained for every vertex v at level ℓ in group g_i:
//
//	Invariant 1 (upper bound): if ℓ < K, v has at most (2+3/λ)(1+δ)^i
//	neighbours at levels ≥ ℓ.
//	Invariant 2 (lower bound): if ℓ > 0 and ℓ−1 ∈ g_i, v has at least
//	(1+δ)^i neighbours at levels ≥ ℓ−1.
//
// The coreness estimate of v is (1+δ)^max(⌊(ℓ(v)+1)/levelsPerGroup⌋−1, 0)
// and is a (2+3/λ)(1+δ)-approximation of the true coreness.
package lds

import (
	"fmt"
	"math"
)

// Params are the approximation parameters of the level structure. The
// paper's experiments use Delta = 0.2 and Lambda = 9, giving a theoretical
// approximation factor of (2+3/λ)(1+δ) = 2.8.
type Params struct {
	Delta  float64 // δ > 0: group growth factor
	Lambda float64 // λ > 0: slack in the degree upper bound
}

// DefaultParams returns the paper's experimental parameters (δ=0.2, λ=9).
func DefaultParams() Params { return Params{Delta: 0.2, Lambda: 9} }

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Delta > 0) {
		return fmt.Errorf("lds: Delta must be > 0, got %v", p.Delta)
	}
	if !(p.Lambda > 0) {
		return fmt.Errorf("lds: Lambda must be > 0, got %v", p.Lambda)
	}
	return nil
}

// ApproxFactor returns the theoretical approximation factor
// (2+3/λ)(1+δ) for these parameters (2.8 for the defaults).
func (p Params) ApproxFactor() float64 {
	return (2 + 3/p.Lambda) * (1 + p.Delta)
}

// Structure is the derived level structure for a fixed vertex count n:
// level/group geometry and precomputed per-group bounds.
type Structure struct {
	Params
	N              int
	LevelsPerGroup int
	NumGroups      int
	K              int // total number of levels

	upper []float64 // upper[i] = (2+3/λ)(1+δ)^i
	lower []float64 // lower[i] = (1+δ)^i
	est   []float64 // est[g] = estimate for "estimate group" g
}

// NewStructure derives the level structure for n vertices.
func NewStructure(n int, p Params) *Structure {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if n < 2 {
		n = 2
	}
	logN := math.Log(float64(n)) / math.Log(1+p.Delta)
	lpg := 4 * int(math.Ceil(logN))
	if lpg < 4 {
		lpg = 4
	}
	groups := int(math.Ceil(logN)) + 1
	if groups < 1 {
		groups = 1
	}
	s := &Structure{
		Params:         p,
		N:              n,
		LevelsPerGroup: lpg,
		NumGroups:      groups,
		K:              lpg * groups,
	}
	s.upper = make([]float64, groups+2)
	s.lower = make([]float64, groups+2)
	s.est = make([]float64, groups+2)
	c := 2 + 3/p.Lambda
	for i := range s.upper {
		pw := math.Pow(1+p.Delta, float64(i))
		s.upper[i] = c * pw
		s.lower[i] = pw
		s.est[i] = pw
	}
	return s
}

// GroupOfLevel returns the group index of level ℓ.
func (s *Structure) GroupOfLevel(level int32) int {
	g := int(level) / s.LevelsPerGroup
	if g >= len(s.upper) {
		g = len(s.upper) - 1
	}
	return g
}

// UpperBound returns the Invariant 1 degree bound for a vertex at level ℓ.
func (s *Structure) UpperBound(level int32) float64 {
	return s.upper[s.GroupOfLevel(level)]
}

// LowerBound returns the Invariant 2 degree bound for a vertex at level ℓ
// (the bound is indexed by the group of ℓ−1; callers pass ℓ).
func (s *Structure) LowerBound(level int32) float64 {
	if level <= 0 {
		return 0
	}
	return s.lower[s.GroupOfLevel(level-1)]
}

// EstimateFromLevel returns the coreness estimate for a vertex at level ℓ:
// (1+δ)^max(⌊(ℓ+1)/levelsPerGroup⌋−1, 0) (Definition 3.1 in the paper).
func (s *Structure) EstimateFromLevel(level int32) float64 {
	g := int(level+1)/s.LevelsPerGroup - 1
	if g < 0 {
		g = 0
	}
	if g >= len(s.est) {
		g = len(s.est) - 1
	}
	return s.est[g]
}

// MaxLevel returns the highest valid level, K−1.
func (s *Structure) MaxLevel() int32 { return int32(s.K - 1) }
