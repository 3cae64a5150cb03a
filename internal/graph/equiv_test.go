package graph

import (
	"math/rand"
	"testing"
)

// mapRef is a plain map-of-sets reference graph with the same batch
// semantics as Dynamic (canonicalize, drop self-loops and out-of-range,
// dedup). The hybrid adjacency engine is validated against it under random
// interleaved insert/delete batches.
type mapRef struct {
	n   uint32
	adj []map[uint32]struct{}
}

func newMapRef(n int) *mapRef {
	return &mapRef{n: uint32(n), adj: make([]map[uint32]struct{}, n)}
}

func (r *mapRef) has(u, v uint32) bool {
	_, ok := r.adj[u][v]
	return ok
}

func (r *mapRef) apply(batch []Edge, insert bool) int {
	changed := 0
	for _, e := range batch {
		if e.IsSelfLoop() || e.U >= r.n || e.V >= r.n {
			continue
		}
		e = e.Canon()
		if insert == r.has(e.U, e.V) {
			continue
		}
		for _, d := range [2]Edge{e, {e.V, e.U}} {
			if insert {
				if r.adj[d.U] == nil {
					r.adj[d.U] = make(map[uint32]struct{})
				}
				r.adj[d.U][d.V] = struct{}{}
			} else {
				delete(r.adj[d.U], d.V)
			}
		}
		changed++
	}
	return changed
}

func (r *mapRef) numEdges() int64 {
	var c int64
	for _, m := range r.adj {
		c += int64(len(m))
	}
	return c / 2
}

// checkAgainstRef compares the full observable state of g with the
// reference: edge count, degrees, sorted neighbour lists and membership.
func checkAgainstRef(t *testing.T, g *Dynamic, r *mapRef) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumEdges() != r.numEdges() {
		t.Fatalf("NumEdges %d != reference %d", g.NumEdges(), r.numEdges())
	}
	for v := uint32(0); v < r.n; v++ {
		if g.Degree(v) != len(r.adj[v]) {
			t.Fatalf("Degree(%d) = %d, reference %d", v, g.Degree(v), len(r.adj[v]))
		}
		for _, w := range g.NeighborSlice(v) {
			if !r.has(v, w) {
				t.Fatalf("phantom neighbour %d of %d", w, v)
			}
			if !g.HasEdge(v, w) || !g.HasEdge(w, v) {
				t.Fatalf("HasEdge(%d,%d) inconsistent with Neighbors", v, w)
			}
		}
	}
}

// randomBatch draws m edges over n vertices, deliberately including
// self-loops, duplicates and out-of-range endpoints.
func randomBatch(rng *rand.Rand, n, m int) []Edge {
	out := make([]Edge, m)
	for i := range out {
		u := uint32(rng.Intn(n + 2)) // +2: sometimes out of range
		v := uint32(rng.Intn(n + 2))
		out[i] = Edge{U: u, V: v}
	}
	return out
}

// TestHybridMatchesMapReference drives the hybrid adjacency and the map
// reference with the same random interleaved insert/delete batches and
// demands identical observable state after every batch. The hub case
// funnels half of every batch through vertex 0, so one vertex climbs far
// above degree 1 024 and falls back while the others stay small.
func TestHybridMatchesMapReference(t *testing.T) {
	type cfg struct {
		name    string
		n       int
		batches int
		size    int
		hubby   bool
	}
	cfgs := []cfg{
		{"small-dense", 24, 60, 40, false},
		{"medium", 300, 40, 250, false},
		{"hub", 3000, 12, 2600, true},
	}
	if testing.Short() {
		cfgs = cfgs[:2]
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			g := NewDynamic(c.n)
			r := newMapRef(c.n)
			for b := 0; b < c.batches; b++ {
				batch := randomBatch(rng, c.n, c.size)
				if c.hubby {
					// Funnel half of the edges through vertex 0.
					for i := range batch {
						if i%2 == 0 {
							batch[i].U = 0
						}
					}
				}
				insert := rng.Intn(3) != 0 // bias toward growth
				var got, want int
				if insert {
					got = len(g.InsertEdges(batch))
					want = r.apply(batch, true)
				} else {
					got = len(g.DeleteEdges(batch))
					want = r.apply(batch, false)
				}
				if got != want {
					t.Fatalf("batch %d (insert=%v): applied %d, reference %d", b, insert, got, want)
				}
				checkAgainstRef(t, g, r)
			}
		})
	}
}

// TestHubGrowsAndShrinks builds a hub of degree 2 048 and deletes it back
// down to 255; at both degrees it checks HasEdge both ways for every
// candidate neighbour, and Validate.
func TestHubGrowsAndShrinks(t *testing.T) {
	const n = 2048
	g := NewDynamic(n + 2)
	batch := make([]Edge, 0, n)
	for v := 1; v <= n; v++ {
		batch = append(batch, Edge{U: 0, V: uint32(v)})
	}
	check := func(degree int) {
		t.Helper()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.Degree(0) != degree {
			t.Fatalf("Degree(0) = %d, want %d", g.Degree(0), degree)
		}
		for v := 1; v <= n+1; v++ {
			want := v > n-degree && v <= n
			if g.HasEdge(0, uint32(v)) != want || g.HasEdge(uint32(v), 0) != want {
				t.Fatalf("degree %d: HasEdge(0, %d) = %v, want %v", degree, v, !want, want)
			}
		}
	}
	g.InsertEdges(batch)
	check(n)
	g.DeleteEdges(batch[:n-255])
	check(255)
}

// FuzzHybridVsMapReference is the fuzz entry for the same equivalence
// property: bytes are decoded into interleaved insert/delete batches.
func FuzzHybridVsMapReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 3, 1, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 48
		g := NewDynamic(n)
		r := newMapRef(n)
		// Each 3-byte chunk: opcode, u, v. Chunks with the same opcode
		// parity are grouped into one batch; parity flips close batches.
		var batch []Edge
		flush := func(insert bool) {
			if len(batch) == 0 {
				return
			}
			var got, want int
			if insert {
				got = len(g.InsertEdges(batch))
				want = r.apply(batch, true)
			} else {
				got = len(g.DeleteEdges(batch))
				want = r.apply(batch, false)
			}
			if got != want {
				t.Fatalf("applied %d, reference %d", got, want)
			}
			checkAgainstRef(t, g, r)
			batch = batch[:0]
		}
		insert := true
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i]%2 == 0
			if op != insert {
				flush(insert)
				insert = op
			}
			batch = append(batch, Edge{U: uint32(data[i+1]) % (n + 1), V: uint32(data[i+2]) % (n + 1)})
		}
		flush(insert)
	})
}
