package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	"kcore"
)

// This file reads the body of POST /edges/batch:
//
//	{"insert":[{"u":0,"v":1},...],"delete":[{"u":2,"v":3},...]}
//
// in one pass over its bytes, appending straight into the []kcore.Edge
// lists the engine takes. It accepts exactly what encoding/json's Decoder
// with DisallowUnknownFields accepts for that schema, and yields the same
// edges, with one addition: only whitespace may follow the object.
//   - Keys match as encoding/json matches struct fields: exactly, or else
//     under Unicode case folding, after unquoting.
//   - A repeated key decodes again into the same value: the last list
//     wins, and its elements decode over the elements the earlier list
//     left at the same index, as encoding/json's reuse of a slice's
//     backing array does.
//   - null empties a list, and leaves an edge or a vertex id as it
//     stands: zero, unless a repeated key set it.
//   - A vertex id is 0 or [1-9][0-9]* within uint32: -1, 1.0, 1e3, "1"
//     and 4294967296 are errors.
//   - Any other key, at either level, is an error.
//
// Every error is a malformed body (400); the caller applies the count and
// vertex-range limits to the lists it returns.

// batchLists is a decoded batch body. A list longer than the decoder's
// limit keeps its first limit edges; its full length is in the count.
type batchLists struct {
	ins, del   []kcore.Edge
	nIns, nDel int
}

// batchScanner holds the read position in a batch body.
type batchScanner struct {
	data  []byte
	off   int
	limit int // edges kept per list; more are read and counted only
}

// decodeBatch decodes a POST /edges/batch body, keeping at most limit
// edges per list.
func decodeBatch(body []byte, limit int) (batchLists, error) {
	s := batchScanner{data: body, limit: max(limit, 0)}
	var b batchLists
	switch s.next() {
	case 'n':
		if err := s.null(); err != nil {
			return b, err
		}
	case '{':
		s.off++
		if err := s.members("insert", "delete", func(i int) error {
			if i == 0 {
				return s.list(&b.ins, &b.nIns)
			}
			return s.list(&b.del, &b.nDel)
		}); err != nil {
			return b, err
		}
	default:
		return b, s.fail("want a JSON object")
	}
	if s.next(); s.off < len(s.data) {
		return b, s.fail("unexpected data after the batch object")
	}
	return b, nil
}

// members reads an object's members after its '{' up to and including its
// '}'. Each key must match a or b; value reads the member's value, given
// 0 for a and 1 for b.
func (s *batchScanner) members(a, b string, value func(int) error) error {
	if s.next() == '}' {
		s.off++
		return nil
	}
	for {
		i, err := s.key(a, b)
		if err != nil {
			return err
		}
		if err := value(i); err != nil {
			return err
		}
		switch s.next() {
		case ',':
			s.off++
		case '}':
			s.off++
			return nil
		default:
			return s.fail("want ',' or '}'")
		}
	}
}

// list reads one list of edges into *edges, with *n its length.
func (s *batchScanner) list(edges *[]kcore.Edge, n *int) error {
	switch s.next() {
	case 'n':
		*edges, *n = nil, 0
		return s.null()
	case '[':
		s.off++
	default:
		return s.fail("want a list of edges")
	}
	*n = 0
	if s.next() == ']' {
		s.off++
		*edges = nil
		return nil
	}
	if cap(*edges) == 0 {
		// Size a new list for the rest of the body at the shortest full
		// edge, so that a body of full edges fills it without growing.
		*edges = make([]kcore.Edge, 0, min(s.limit, (len(s.data)-s.off)/len(`{"u":0,"v":0},`)+1))
	}
	l := (*edges)[:0]
	var spare kcore.Edge
	for {
		e := &spare
		if i := *n; i < s.limit {
			// Within capacity, the slot keeps what an earlier list under
			// a repeated key left there, as encoding/json's does.
			if i < cap(l) {
				l = l[:i+1]
			} else {
				l = append(l, kcore.Edge{})
			}
			e = &l[i]
		}
		*n++
		if err := s.edge(e); err != nil {
			return err
		}
		switch s.next() {
		case ',':
			s.off++
		case ']':
			s.off++
			*edges = l
			return nil
		default:
			return s.fail("want ',' or ']'")
		}
	}
}

// edge reads one edge object, or null, into e.
func (s *batchScanner) edge(e *kcore.Edge) error {
	switch s.next() {
	case 'n':
		return s.null()
	case '{':
		s.off++
	default:
		return s.fail("want an edge object")
	}
	return s.members("u", "v", func(i int) error {
		if i == 0 {
			return s.vertex(&e.U)
		}
		return s.vertex(&e.V)
	})
}

// vertex reads one vertex id, or null, into v.
func (s *batchScanner) vertex(v *uint32) error {
	c := s.next()
	switch {
	case c == 'n':
		return s.null()
	case c == '0':
		s.off++
		*v = 0
		return nil
	case c < '1' || c > '9':
		return s.fail("want a vertex id")
	}
	var x uint64
	for ; s.off < len(s.data) && '0' <= s.data[s.off] && s.data[s.off] <= '9'; s.off++ {
		if x = x*10 + uint64(s.data[s.off]-'0'); x > math.MaxUint32 {
			return s.fail("vertex id exceeds uint32")
		}
	}
	*v = uint32(x)
	return nil
}

// key reads an object key and the colon after it, and reports whether it
// names a (0) or b (1). A key with escapes is unquoted by encoding/json.
func (s *batchScanner) key(a, b string) (int, error) {
	if s.next() != '"' {
		return 0, s.fail("want a field name")
	}
	start := s.off
	escaped := false
	i := start + 1
	for ; i < len(s.data) && s.data[i] != '"'; i++ {
		switch c := s.data[i]; {
		case c == '\\':
			escaped = true
			i++
		case c < 0x20:
			return 0, s.fail("control character in a field name")
		}
	}
	if i >= len(s.data) {
		return 0, s.fail("unterminated field name")
	}
	s.off = i + 1
	key := s.data[start+1 : i]
	if escaped {
		var k string
		if err := json.Unmarshal(s.data[start:i+1], &k); err != nil {
			s.off = start
			return 0, s.fail("bad field name")
		}
		key = []byte(k)
	}
	if s.next() != ':' {
		return 0, s.fail("want ':'")
	}
	s.off++
	switch {
	case string(key) == a:
		return 0, nil
	case string(key) == b:
		return 1, nil
	case bytes.EqualFold(key, []byte(a)):
		return 0, nil
	case bytes.EqualFold(key, []byte(b)):
		return 1, nil
	}
	s.off = start
	return 0, s.fail(fmt.Sprintf("unknown field %q", key))
}

// null consumes the literal null.
func (s *batchScanner) null() error {
	if !bytes.HasPrefix(s.data[s.off:], []byte("null")) {
		return s.fail("want null")
	}
	s.off += len("null")
	return nil
}

// next skips whitespace and returns the byte there, or 0 at the end of
// the body.
func (s *batchScanner) next() byte {
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (s *batchScanner) fail(msg string) error {
	if s.off >= len(s.data) {
		return fmt.Errorf("%s at the end of the body (offset %d)", msg, s.off)
	}
	return fmt.Errorf("%s at offset %d", msg, s.off)
}

// readRequestBody reads the whole of body into one buffer, sized from the
// request's Content-Length when that is known and within limit.
func readRequestBody(r *http.Request, body io.Reader, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead free to read EOF
	}
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}
