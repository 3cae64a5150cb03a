package main

import (
	"fmt"
	"strconv"

	"kcore"
	"kcore/internal/gen"
	"kcore/internal/graph"
)

// readSetCount is how many distinct bulk-read id lists a run cycles through.
// Drawing 64 Zipf ids costs more than the in-process read it feeds, so the
// lists are drawn once, before anything is timed.
const readSetCount = 4096

// inputs is everything the generator derives from -seed. Nothing else about
// a run is random: the servers and the library only ever see these values.
type inputs struct {
	z sizing
	// ring is the shuffled edge pool, stored twice back to back so that any
	// window of up to len(pool) edges starting inside the first copy is one
	// contiguous slice.
	ring []graph.Edge
	pool int // distinct edges in the pool
	// readSets are the Zipf id lists bulk reads cycle through; ids holds the
	// same draws flat, for single-vertex reads.
	readSets [][]uint32
	ids      []uint32
}

func newInputs(seed int64, z sizing) (*inputs, error) {
	if err := z.validate(); err != nil {
		return nil, err
	}
	pool := gen.Shuffle(gen.ChungLu(z.Vertices, z.PoolEdges, z.ChungLuExponent, seed), seed+1)
	if len(pool) != z.PoolEdges {
		return nil, fmt.Errorf("generator produced %d of %d pool edges", len(pool), z.PoolEdges)
	}
	in := &inputs{z: z, pool: len(pool), ring: append(pool, pool...)}
	zipf := gen.NewZipfReads(z.Vertices, z.ZipfS, seed+2)
	in.ids = make([]uint32, readSetCount*z.ReadIDs)
	for i := range in.ids {
		in.ids[i] = zipf.Next()
	}
	in.readSets = make([][]uint32, readSetCount)
	for i := range in.readSets {
		in.readSets[i] = in.ids[i*z.ReadIDs : (i+1)*z.ReadIDs]
	}
	return in, nil
}

// window returns k consecutive ring edges starting at absolute position pos.
func (in *inputs) window(pos, k int) []graph.Edge {
	lo := pos % in.pool
	return in.ring[lo : lo+k]
}

// preload returns the initial live window in PreloadChunk-sized batches.
func (in *inputs) preload() [][]graph.Edge {
	return gen.Batches(in.window(0, in.z.PreloadEdges), in.z.PreloadChunk)
}

// batch returns update batch i of a stream with k inserts and k deletes per
// batch: the window slides by k, inserting the k ring edges ahead of it and
// deleting its k oldest. Inserted edges are never live and deleted edges
// always are, so no operation is a no-op and the live graph keeps its size.
func (in *inputs) batch(i, k int) (ins, del []graph.Edge) {
	head := in.z.PreloadEdges + i*k
	return in.window(head, k), in.window(head-in.z.PreloadEdges, k)
}

// live returns the edge set after `batches` batches of k.
func (in *inputs) live(batches, k int) []graph.Edge {
	return in.window(batches*k, in.z.PreloadEdges)
}

// allVertices returns 0..n-1, the id list of a full-graph read.
func (in *inputs) allVertices() []uint32 {
	vs := make([]uint32, in.z.Vertices)
	for i := range vs {
		vs[i] = uint32(i)
	}
	return vs
}

func toPublic(edges []graph.Edge) []kcore.Edge {
	out := make([]kcore.Edge, len(edges))
	for i, e := range edges {
		out[i] = kcore.Edge{U: e.U, V: e.V}
	}
	return out
}

// appendBatchJSON appends the POST /edges/batch body for (ins, del).
func appendBatchJSON(buf []byte, ins, del []graph.Edge) []byte {
	list := func(name string, edges []graph.Edge) {
		buf = append(buf, '"')
		buf = append(buf, name...)
		buf = append(buf, `":[`...)
		for i, e := range edges {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"u":`...)
			buf = strconv.AppendUint(buf, uint64(e.U), 10)
			buf = append(buf, `,"v":`...)
			buf = strconv.AppendUint(buf, uint64(e.V), 10)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	buf = append(buf, '{')
	list("insert", ins)
	buf = append(buf, ',')
	list("delete", del)
	return append(buf, '}')
}

// appendBulkJSON appends the POST /coreness/bulk body for ids; at is the
// exact epoch to read ("epoch") and floor the epoch the server must have
// reached ("min_epoch"), each omitted when negative.
func appendBulkJSON(buf []byte, ids []uint32, at, floor int64) []byte {
	buf = append(buf, `{"vertices":[`...)
	for i, v := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(v), 10)
	}
	buf = append(buf, ']')
	if at >= 0 {
		buf = append(buf, `,"epoch":`...)
		buf = strconv.AppendInt(buf, at, 10)
	}
	if floor >= 0 {
		buf = append(buf, `,"min_epoch":`...)
		buf = strconv.AppendInt(buf, floor, 10)
	}
	return append(buf, '}')
}
