package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/shard"
)

func sampleTrace() *Trace {
	return &Trace{
		NumVertices: 10,
		Ops: []Op{
			{Kind: OpInsert, Edges: []graph.Edge{graph.E(0, 1), graph.E(1, 2)}},
			{Kind: OpRead, Vertices: []uint32{0, 5, 9}},
			{Kind: OpDelete, Edges: []graph.Edge{graph.E(0, 1)}},
			{Kind: OpRead, Vertices: []uint32{1}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", orig, back)
	}
}

func TestReadFromErrors(t *testing.T) {
	// Truncated header.
	if _, err := ReadFrom(strings.NewReader("xx")); err == nil {
		t.Fatal("want error for truncated header")
	}
	// Bad magic.
	var buf bytes.Buffer
	buf.Write(make([]byte, 16))
	if _, err := ReadFrom(&buf); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want magic error, got %v", err)
	}
	// Truncated body.
	var ok bytes.Buffer
	if err := sampleTrace().Write(&ok); err != nil {
		t.Fatal(err)
	}
	trunc := ok.Bytes()[:ok.Len()-3]
	if _, err := ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatal("want error for truncated body")
	}
}

func TestReadFromHugeCountFailsCleanly(t *testing.T) {
	// A corrupt or hostile header claiming 4 billion edges with no body
	// must fail on the short read, not attempt a 32 GiB allocation.
	writeHeader := func(buf *bytes.Buffer, kind OpKind) {
		binary.Write(buf, binary.LittleEndian, []uint32{magic, version, 10, 1})
		buf.WriteByte(byte(kind))
		binary.Write(buf, binary.LittleEndian, uint32(0xffffffff))
	}
	for _, kind := range []OpKind{OpInsert, OpDelete, OpRead} {
		var buf bytes.Buffer
		writeHeader(&buf, kind)
		if _, err := ReadFrom(&buf); err == nil {
			t.Fatalf("kind %d: want error for huge count with empty body", kind)
		}
	}
	// Same discipline for the op count itself.
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, []uint32{magic, version, 10, 0xffffffff})
	if _, err := ReadFrom(&buf); err == nil {
		t.Fatal("want error for huge op count with empty body")
	}
}

func TestWriteUnknownOpKind(t *testing.T) {
	bad := &Trace{NumVertices: 1, Ops: []Op{{Kind: 99}}}
	if err := bad.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

func TestSynthesize(t *testing.T) {
	tr, err := Synthesize("tiny", 500, 20, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Summarize()
	if s.Inserts == 0 || s.ReadProbes == 0 || s.Deletes == 0 {
		t.Fatalf("missing op kinds: %+v", s)
	}
	// All inserted edges appear; deleted edges were previously inserted.
	if s.DeleteEdges == 0 || s.DeleteEdges > s.InsertEdges {
		t.Fatalf("delete/insert edge counts: %+v", s)
	}
	if s.Reads != int64(s.ReadProbes)*20 {
		t.Fatalf("reads = %d, want %d", s.Reads, s.ReadProbes*20)
	}
	if _, err := Synthesize("bogus", 500, 20, 0, 5); err == nil {
		t.Fatal("want error for bogus profile")
	}
}

func TestReplay(t *testing.T) {
	tr, err := Synthesize("tiny", 1000, 50, 0.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(tr, lds.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != len(tr.Ops) {
		t.Fatalf("replayed %d/%d ops", res.Ops, len(tr.Ops))
	}
	if res.ReadLat.Count == 0 {
		t.Fatal("no reads replayed")
	}
	if res.EdgesApplied == 0 || res.FinalEdges == 0 {
		t.Fatalf("edge accounting: %+v", res)
	}
	if res.UpdateTime <= 0 {
		t.Fatal("no update time recorded")
	}
}

func TestReplayRejectsOutOfRangeRead(t *testing.T) {
	tr := &Trace{NumVertices: 3, Ops: []Op{{Kind: OpRead, Vertices: []uint32{7}}}}
	if _, err := Replay(tr, lds.DefaultParams(), 1); err == nil {
		t.Fatal("want error for out-of-range read")
	}
}

func TestReplayDeterministicFinalState(t *testing.T) {
	tr, err := Synthesize("tiny", 800, 10, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Replay(tr, lds.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(tr, lds.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalEdges != b.FinalEdges || a.EdgesApplied != b.EdgesApplied {
		t.Fatalf("replay nondeterministic: %+v vs %+v", a, b)
	}
}

// TestReplayShards replays a churning trace at one and at three shards and
// asserts the replayed coreness state matches a fresh build of the same
// trace at the same epoch — replay is a sequential submitter, so both runs
// commit the identical batch sequence. The global edge count does not
// depend on the shard count.
func TestReplayShards(t *testing.T) {
	tr, err := Synthesize("tiny", 800, 25, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	var finalEdges []int64
	for _, shards := range []int{1, 3} {
		res, err := Replay(tr, lds.DefaultParams(), shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Ops != len(tr.Ops) {
			t.Fatalf("shards=%d: replayed %d/%d ops", shards, res.Ops, len(tr.Ops))
		}
		finalEdges = append(finalEdges, res.FinalEdges)
		if res.FinalEdges != finalEdges[0] {
			t.Fatalf("shards=%d: final edges %d, one-shard replay %d", shards, res.FinalEdges, finalEdges[0])
		}

		// Fresh build: apply the trace's updates again (no timing, no reads)
		// and compare the full pinned coreness vector at the same epoch.
		replayed := shard.New(tr.NumVertices, shards, lds.DefaultParams())
		fresh := shard.New(tr.NumVertices, shards, lds.DefaultParams())
		for _, op := range tr.Ops {
			switch op.Kind {
			case OpInsert:
				replayed.Insert(op.Edges)
				fresh.Insert(op.Edges)
			case OpDelete:
				replayed.Delete(op.Edges)
				fresh.Delete(op.Edges)
			}
		}
		if re, fe := replayed.Epoch(), fresh.Epoch(); re != fe {
			t.Fatalf("shards=%d: replayed epoch %d != fresh-build epoch %d", shards, re, fe)
		}
		a := make([]float64, tr.NumVertices)
		b := make([]float64, tr.NumVertices)
		ea := replayed.ReadAllPinned(a)
		eb := fresh.ReadAllPinned(b)
		if ea != eb {
			t.Fatalf("shards=%d: pinned epochs differ: %d vs %d", shards, ea, eb)
		}
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("shards=%d: replayed coreness of %d = %v, fresh build %v", shards, v, a[v], b[v])
			}
		}
	}
}
