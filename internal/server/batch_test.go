package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kcore"
	"kcore/internal/graph"
	"kcore/internal/lds"
)

// refBatchRequest is the batch schema as encoding/json sees it: the
// reference that decodeBatch must agree with.
type refBatchRequest struct {
	Insert []refBatchEdge `json:"insert"`
	Delete []refBatchEdge `json:"delete"`
}

type refBatchEdge struct {
	U uint32 `json:"u"`
	V uint32 `json:"v"`
}

// decodeReference decodes body with json.Decoder and
// DisallowUnknownFields, and rejects anything but whitespace after the
// object.
func decodeReference(body []byte) (refBatchRequest, bool) {
	var req refBatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, false
	}
	rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")
	return req, len(rest) == 0
}

// checkDecodeBatch checks decodeBatch(body, limit) against the reference:
// the same decision, the same list lengths, and the same edges in every
// kept slot.
func checkDecodeBatch(t *testing.T, body []byte, limit int) {
	t.Helper()
	ref, refOK := decodeReference(body)
	got, err := decodeBatch(body, limit)
	if refOK != (err == nil) {
		t.Fatalf("body %q, limit %d: encoding/json accepts: %v, decodeBatch error: %v", body, limit, refOK, err)
	}
	if !refOK {
		return
	}
	for _, l := range []struct {
		name string
		want []refBatchEdge
		got  []kcore.Edge
		n    int
	}{{"insert", ref.Insert, got.ins, got.nIns}, {"delete", ref.Delete, got.del, got.nDel}} {
		if l.n != len(l.want) {
			t.Fatalf("body %q, limit %d: %s has %d edges, want %d", body, limit, l.name, l.n, len(l.want))
		}
		kept := l.want[:min(len(l.want), limit)]
		if len(l.got) != len(kept) || !slices.EqualFunc(l.got, kept, func(a kcore.Edge, b refBatchEdge) bool {
			return a.U == b.U && a.V == b.V
		}) {
			t.Fatalf("body %q, limit %d: %s = %v, want %v", body, limit, l.name, l.got, kept)
		}
	}
}

// benchBatchBody is a body shaped as the benchmark's client writes it.
func benchBatchBody(ins, del []graph.Edge) []byte {
	list := func(buf []byte, name string, edges []graph.Edge) []byte {
		buf = append(buf, `"`+name+`":[`...)
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
		return append(buf, ']')
	}
	buf := list([]byte{'{'}, "insert", ins)
	buf = list(append(buf, ','), "delete", del)
	return append(buf, '}')
}

var batchSeeds = []string{
	// Shapes every client sends.
	`{"insert":[{"u":0,"v":1},{"u":1,"v":2}],"delete":[{"u":2,"v":3}]}`,
	`{"insert":[{"u":0,"v":1}]}`,
	`{"delete":[{"u":4294967295,"v":0}]}`,
	" \t\r\n{ \"insert\" : [ { \"u\" : 1 , \"v\" : 2 } ] , \"delete\" : [ ] } \n",
	// Keys: escaped, case-folded (ſ folds with s), unknown, duplicated.
	`{"insert":[{"u":1,"v":2}]}`,
	`{"in\/sert":[{"u":1,"v":2}]}`,
	`{"Insert":[{"U":1,"V":2}],"DELETE":[{"u":3,"v":4}]}`,
	`{"inſert":[{"u":1,"v":2}]}`,
	`{"insert":[{"u":1,"v":2,"w":3}]}`,
	`{"insert":[{"u":1,"v":2}],"extra":[]}`,
	`{"inserts":[{"u":1,"v":2}]}`,
	`{"insert":[{"u":1,"v":2}],"insert":[{"u":3,"v":4}]}`,
	`{"insert":[{"u":1,"v":2},{"u":3,"v":4},{"u":5,"v":6}],"insert":[{"u":7}],"insert":[{"v":8},{},null]}`,
	`{"insert":[{"u":1,"v":2}],"insert":[],"insert":[{"u":3}]}`,
	`{"insert":[{"u":1,"v":2}],"insert":null,"insert":[{"u":3}]}`,
	`{"insert":[{"u":1,"u":2,"v":3,"v":null}]}`,
	// null at each level, empty lists and objects.
	`null`, `{}`, `{"insert":null,"delete":null}`, `{"insert":[null,{"u":null,"v":null}]}`,
	`{"insert":[],"delete":[]}`, `{"insert":[{}]}`,
	// Vertex ids: bounds and every other number form.
	`{"insert":[{"u":4294967295,"v":0}]}`, `{"insert":[{"u":4294967296,"v":0}]}`,
	`{"insert":[{"u":-0,"v":0}]}`, `{"insert":[{"u":01,"v":0}]}`, `{"insert":[{"u":1e0,"v":0}]}`,
	`{"insert":[{"u":-1,"v":0}]}`, `{"insert":[{"u":1.0,"v":0}]}`, `{"insert":[{"u":"7","v":0}]}`,
	`{"insert":[{"u":true,"v":0}]}`, `{"insert":[{"u":[],"v":0}]}`, `{"insert":[{"u":99999999999999999999,"v":0}]}`,
	// Wrong types and trailing bytes.
	`[]`, `1`, `"insert"`, `{"insert":{}}`, `{"insert":[[]]}`, `{"insert":[1]}`,
	`{"insert":[{"u":1,"v":2}]} x`, `{"insert":[{"u":1,"v":2}]}{}`, "{}\x00", `nullnull`,
	"{\"in\x01sert\":[]}", `{"insert":[{"u":1,"v":2}],}`, `{"insert":[{"u":1,"v":2},]}`,
}

func FuzzDecodeBatch(f *testing.F) {
	for _, s := range batchSeeds {
		f.Add([]byte(s))
	}
	f.Add(benchBatchBody([]graph.Edge{{U: 12, V: 29871}, {U: 3, V: 4}}, []graph.Edge{{U: 29999, V: 0}}))
	// Truncation at every byte, so at every token, of two full bodies.
	for _, s := range []string{batchSeeds[0], batchSeeds[3]} {
		for i := range len(s) {
			f.Add([]byte(s[:i]))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeBatch(t, body, len(body))
		checkDecodeBatch(t, body, 2)
	})
}

// batchBodyAt returns a valid one-edge batch body padded with whitespace
// inside the object to exactly size bytes.
func batchBodyAt(size int) string {
	const head, tail = `{"insert":[{"u":0,"v":1}]`, `}`
	return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
}

// TestBatchBodyAtByteLimit: a body of exactly the byte limit decodes; one
// byte more is 413 (a row of TestStructuredErrorBodies).
func TestBatchBodyAtByteLimit(t *testing.T) {
	s, ts := newTestService(t, WithMaxBatchEdges(8))
	resp := post(t, ts.URL+"/edges/batch", batchBodyAt(int(s.batchBodyLimit())))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", resp.StatusCode, readBody(t, resp))
	}
	if br := decode[batchResponse](t, resp); br.Inserted != 1 {
		t.Fatalf("reply %+v, want one edge inserted", br)
	}
}

// BenchmarkHandleBatch posts one 5 000 + 5 000-edge body, shaped as the
// benchmark's client writes it, through the handler stack in process. The
// insertions are all present and the deletions all absent, so the engine
// only filters them and commits nothing; the cost is the request path.
func BenchmarkHandleBatch(b *testing.B) {
	const n, k = 30_000, 5_000
	s, err := New(n, lds.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ins := make([]graph.Edge, k)
	del := make([]graph.Edge, k)
	for i := range k {
		ins[i] = graph.Edge{U: uint32(i), V: uint32(n - 1 - i)}
		del[i] = graph.Edge{U: uint32(i), V: uint32(i + 1)}
	}
	s.InsertBatch(ins)
	body := benchBatchBody(ins, del)
	h := s.Handler()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		req := httptest.NewRequest(http.MethodPost, "/edges/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
