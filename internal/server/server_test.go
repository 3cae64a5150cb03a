package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kcore"
	"kcore/internal/lds"
)

func newTestServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	s, err := New(100, lds.DefaultParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func triangleBody() string { return "0 1\n1 2\n0 2\n" }

func TestInsertAndRead(t *testing.T) {
	ts := newTestServer(t)
	resp := post(t, ts.URL+"/edges/insert", triangleBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	up := decode[updateResponse](t, resp)
	if up.Applied != 3 || up.Batch != 1 {
		t.Fatalf("insert response %+v", up)
	}
	resp = get(t, ts.URL+"/coreness?v=0")
	cr := decode[corenessResponse](t, resp)
	if cr.Vertex != 0 || cr.Coreness < 1 || cr.Mode != "linearizable" {
		t.Fatalf("coreness response %+v", cr)
	}
}

func TestReadModes(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/edges/insert", triangleBody())
	for _, mode := range []string{"linearizable", "nonsync", "blocking"} {
		resp := get(t, fmt.Sprintf("%s/coreness?v=1&mode=%s", ts.URL, mode))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s status %d", mode, resp.StatusCode)
		}
		cr := decode[corenessResponse](t, resp)
		if cr.Mode != mode {
			t.Fatalf("mode echo %q", cr.Mode)
		}
	}
	if resp := get(t, ts.URL+"/coreness?v=1&mode=psychic"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode status %d", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	if resp := get(t, ts.URL+"/coreness?v=notanumber"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status %d", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/coreness?v=5000"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range id status %d", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/top?k=0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k status %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/edges/insert", "zap\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad edge list status %d", resp.StatusCode)
	}
}

func TestDeleteAndStats(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/edges/insert", triangleBody())
	resp := post(t, ts.URL+"/edges/delete", "0 1\n")
	up := decode[updateResponse](t, resp)
	if up.Applied != 1 {
		t.Fatalf("delete applied %d", up.Applied)
	}
	st := decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if st.Edges != 2 || st.Inserted != 3 || st.Deleted != 1 || st.Batches != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTopEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Dense cluster on 0..4.
	var b strings.Builder
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			fmt.Fprintf(&b, "%d %d\n", i, j)
		}
	}
	post(t, ts.URL+"/edges/insert", b.String())
	top := decode[topResponse](t, get(t, ts.URL+"/top?k=5"))
	if len(top.Vertices) != 5 {
		t.Fatalf("top = %v", top)
	}
	for _, v := range top.Vertices {
		if v > 4 {
			t.Fatalf("non-cluster vertex %d in top", v)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp := post(t, ts.URL+"/edges/batch", `{"insert":[{"u":0,"v":1},{"u":1,"v":2},{"u":0,"v":2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch insert status %d", resp.StatusCode)
	}
	br := decode[batchResponse](t, resp)
	if br.Inserted != 3 || br.Deleted != 0 {
		t.Fatalf("batch response %+v", br)
	}
	// Mixed batch: one deletion, one fresh insertion, one insert+delete
	// pair of the same (absent) edge. With one shard the insertions and the
	// deletions run as two sub-batches in that order (the paper's model), so
	// the pair is inserted, then deleted: it counts on both sides and leaves
	// the graph without the edge.
	resp = post(t, ts.URL+"/edges/batch",
		`{"insert":[{"u":2,"v":3},{"u":7,"v":8}],"delete":[{"u":0,"v":1},{"u":7,"v":8}]}`)
	br = decode[batchResponse](t, resp)
	if br.Inserted != 2 || br.Deleted != 2 {
		t.Fatalf("mixed batch response %+v", br)
	}
	st := decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if st.Edges != 3 || st.Inserted != 5 || st.Deleted != 2 {
		t.Fatalf("stats after batches %+v", st)
	}
}

func TestBatchEndpointErrorPaths(t *testing.T) {
	tests := []struct {
		name       string
		body       string
		wantStatus int
		opts       []Option
	}{
		{
			name:       "malformed JSON",
			body:       `{"insert":[{"u":0,"v":1}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "not JSON at all",
			body:       "0 1\n1 2\n",
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "unknown field",
			body:       `{"insertions":[{"u":0,"v":1}]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "empty batch",
			body:       `{}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "empty lists",
			body:       `{"insert":[],"delete":[]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "out-of-range insert vertex",
			body:       `{"insert":[{"u":0,"v":100}]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "out-of-range delete vertex",
			body:       `{"delete":[{"u":5000,"v":1}]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "negative vertex id",
			body:       `{"insert":[{"u":-1,"v":1}]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "oversized batch",
			body:       `{"insert":[{"u":0,"v":1},{"u":1,"v":2},{"u":2,"v":3}]}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			opts:       []Option{WithMaxBatchEdges(2)},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTestServer(t, tc.opts...)
			resp := post(t, ts.URL+"/edges/batch", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			// An invalid batch must not have touched the graph.
			st := decode[statsResponse](t, get(t, ts.URL+"/stats"))
			if st.Edges != 0 || st.Inserted != 0 || st.Deleted != 0 {
				t.Fatalf("rejected batch mutated state: %+v", st)
			}
		})
	}
}

func TestShardedServer(t *testing.T) {
	ts := newTestServer(t, WithShards(4))
	st := decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if st.Shards != 4 {
		t.Fatalf("shards = %d, want 4", st.Shards)
	}
	post(t, ts.URL+"/edges/insert", triangleBody())
	for v := 0; v < 3; v++ {
		resp := get(t, fmt.Sprintf("%s/coreness?v=%d", ts.URL, v))
		cr := decode[corenessResponse](t, resp)
		if cr.Coreness < 1 {
			t.Fatalf("vertex %d coreness %v on sharded server", v, cr.Coreness)
		}
	}
	st = decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if st.Edges != 3 || st.Inserted != 3 {
		t.Fatalf("sharded stats %+v", st)
	}
	if len(st.ShardLoad) != 4 {
		t.Fatalf("shard_load has %d entries, want 4", len(st.ShardLoad))
	}
	var owned int
	var primary int64
	for _, sl := range st.ShardLoad {
		owned += sl.OwnedVertices
		primary += sl.PrimaryEdges
	}
	if owned != st.Vertices {
		t.Fatalf("shard_load owned vertices sum %d != %d", owned, st.Vertices)
	}
	if primary != st.Edges {
		t.Fatalf("shard_load primary edges sum %d != %d", primary, st.Edges)
	}
}

func TestBulkCorenessEndpoint(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ts := newTestServer(t, WithShards(shards))
			post(t, ts.URL+"/edges/insert", triangleBody())
			resp := post(t, ts.URL+"/coreness/bulk", `{"vertices":[0,1,2,50]}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("bulk status %d", resp.StatusCode)
			}
			br := decode[bulkResponse](t, resp)
			if len(br.Coreness) != 4 {
				t.Fatalf("bulk returned %d values", len(br.Coreness))
			}
			for i := 0; i < 3; i++ {
				if br.Coreness[i] < 1 {
					t.Fatalf("triangle vertex %d coreness %v", i, br.Coreness[i])
				}
			}
			if br.Coreness[3] != 1 {
				t.Fatalf("isolated vertex coreness %v, want floor estimate 1", br.Coreness[3])
			}
			// One batch per touched shard committed; the bulk read reports
			// the single epoch it was served from.
			if br.Epoch == 0 {
				t.Fatal("bulk response missing epoch")
			}
		})
	}
}

func TestBulkCorenessErrorPaths(t *testing.T) {
	tests := []struct {
		name       string
		body       string
		wantStatus int
		opts       []Option
	}{
		{name: "malformed JSON", body: `{"vertices":[0`, wantStatus: http.StatusBadRequest},
		{name: "unknown field", body: `{"ids":[0]}`, wantStatus: http.StatusBadRequest},
		{name: "empty list", body: `{"vertices":[]}`, wantStatus: http.StatusBadRequest},
		{name: "missing list", body: `{}`, wantStatus: http.StatusBadRequest},
		{name: "out of range", body: `{"vertices":[0,100]}`, wantStatus: http.StatusBadRequest},
		{name: "negative id", body: `{"vertices":[-1]}`, wantStatus: http.StatusBadRequest},
		{
			name:       "oversized list",
			body:       `{"vertices":[0,1,2]}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			opts:       []Option{WithMaxBatchEdges(2)},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTestServer(t, tc.opts...)
			resp := post(t, ts.URL+"/coreness/bulk", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
		})
	}
}

// TestEpochFieldsReported checks that every read surface reports the epoch
// of the cut it served: single reads, bulk reads, rankings and stats.
func TestEpochFieldsReported(t *testing.T) {
	ts := newTestServer(t, WithShards(2))
	post(t, ts.URL+"/edges/insert", triangleBody())
	post(t, ts.URL+"/edges/delete", "0 1\n")

	st := decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if st.Epoch == 0 {
		t.Fatalf("stats epoch = 0 after two update batches: %+v", st)
	}
	cr := decode[corenessResponse](t, get(t, ts.URL+"/coreness?v=0"))
	if cr.Epoch == 0 {
		t.Fatalf("coreness response missing epoch: %+v", cr)
	}
	top := decode[topResponse](t, get(t, ts.URL+"/top?k=2"))
	if top.Epoch == 0 {
		t.Fatalf("top response missing epoch: %+v", top)
	}
	if len(top.Vertices) != 2 {
		t.Fatalf("top = %+v", top)
	}
}

// TestUpdateReplyEpochViews: every update reply carries the epoch its own
// call committed. Writers of disjoint batches post at once through the
// three update endpoints, each batch a clique put in or taken out. Every
// reply epoch is distinct, the view at it shows the batch applied, and the
// view one epoch earlier does not.
func TestUpdateReplyEpochViews(t *testing.T) {
	const writers, rounds, m = 4, 8, 10
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			n := writers*rounds*m + 1 // the last vertex stays isolated
			s, err := New(n, lds.DefaultParams(), WithShards(shards), WithRetainedEpochs(4*writers*rounds*shards))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)

			type reply struct {
				clique int // the clique's first vertex
				insert bool
				epoch  uint64
			}
			replies := make([][]reply, writers)
			errs := make(chan error, writers)
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range rounds {
						first := (w*rounds + r) * m
						var lines, objs []string
						for a := first; a < first+m; a++ {
							for b := a + 1; b < first+m; b++ {
								lines = append(lines, fmt.Sprintf("%d %d\n", a, b))
								objs = append(objs, fmt.Sprintf(`{"u":%d,"v":%d}`, a, b))
							}
						}
						// The insertion and the deletion each take the JSON
						// or the text endpoint, alternately.
						list := "[" + strings.Join(objs, ",") + "]"
						text := strings.Join(lines, "")
						steps := []struct {
							path, body string
							insert     bool
						}{{"/edges/batch", `{"insert":` + list + `}`, true}, {"/edges/delete", text, false}}
						if r%2 == 1 {
							steps[0].path, steps[0].body = "/edges/insert", text
							steps[1].path, steps[1].body = "/edges/batch", `{"delete":`+list+`}`
						}
						for _, st := range steps {
							resp, err := http.Post(ts.URL+st.path, "application/json", strings.NewReader(st.body))
							if err != nil {
								errs <- err
								return
							}
							var rep struct {
								Applied, Inserted, Deleted int
								Batch                      uint64
							}
							err = json.NewDecoder(resp.Body).Decode(&rep)
							resp.Body.Close()
							if applied := rep.Applied + rep.Inserted + rep.Deleted; err != nil || resp.StatusCode != http.StatusOK || applied != len(lines) {
								errs <- fmt.Errorf("%s: status %d, %d of %d edges applied, %v", st.path, resp.StatusCode, applied, len(lines), err)
								return
							}
							replies[w] = append(replies[w], reply{first, st.insert, rep.Batch})
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			seen := map[uint64]reply{}
			for _, rs := range replies {
				for _, rp := range rs {
					if other, dup := seen[rp.epoch]; dup {
						t.Fatalf("batches at vertex %d and %d both replied epoch %d", other.clique, rp.clique, rp.epoch)
					}
					seen[rp.epoch] = rp
				}
			}
			// applied reports whether the view at epoch shows the clique
			// in (or out, for a deletion) on every one of its vertices.
			d := s.Decomposition()
			applied := func(rp reply, epoch uint64) bool {
				v, err := d.ViewAt(epoch)
				if err != nil {
					t.Fatalf("view at epoch %d: %v", epoch, err)
				}
				isolated := v.Coreness(uint32(n - 1))
				for u := rp.clique; u < rp.clique+m; u++ {
					if (v.Coreness(uint32(u)) > isolated) != rp.insert {
						return false
					}
				}
				return true
			}
			for e, rp := range seen {
				if !applied(rp, e) {
					t.Errorf("view at reply epoch %d does not show the batch at vertex %d (insert %v) applied", e, rp.clique, rp.insert)
				}
				if applied(rp, e-1) {
					t.Errorf("view at epoch %d, before reply epoch %d, already shows the batch at vertex %d (insert %v) applied", e-1, e, rp.clique, rp.insert)
				}
			}
		})
	}
}

func TestConcurrentReadsDuringUpdates(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(fmt.Sprintf("%s/coreness?v=%d", ts.URL, i%100))
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for round := 0; round < 5; round++ {
		var b strings.Builder
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "%d %d\n", (round*13+i)%100, (round*7+i*3)%100)
		}
		if resp := post(t, ts.URL+"/edges/insert", b.String()); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d insert status %d", round, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	st := decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if st.Reads == 0 {
		t.Fatal("no reads served")
	}
}

// TestRetainedEpochReads covers the requested-epoch read forms: ?epoch= on
// /coreness and /top and the bulk "epoch" field serve the exact retired
// cut, evicted epochs answer 410 Gone, and future epochs 404.
func TestRetainedEpochReads(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ts := newTestServer(t, WithShards(shards), WithRetainedEpochs(16))
			// A clique over 0..7 lifts estimates well above the floor (in
			// every shard's local subgraph: all of 0's edges live in 0's
			// owning shard).
			var clique, star strings.Builder
			for i := 0; i < 8; i++ {
				for j := i + 1; j < 8; j++ {
					fmt.Fprintf(&clique, "%d %d\n", i, j)
				}
				if i > 0 {
					fmt.Fprintf(&star, "0 %d\n", i)
				}
			}
			post(t, ts.URL+"/edges/insert", clique.String())

			// Freeze the clique's cut, then cut vertex 0 loose (later
			// epochs). Per-shard subgraphs can legitimately sit at the floor
			// (a lone clique member's local view is a star), so the
			// above-floor precondition only holds unsharded.
			cr := decode[corenessResponse](t, get(t, ts.URL+"/coreness?v=0"))
			if shards == 1 && cr.Coreness <= 1 {
				t.Fatalf("clique estimate at the floor: %+v", cr)
			}
			frozen := cr.Epoch
			post(t, ts.URL+"/edges/delete", star.String())

			// The frozen epoch still serves the triangle value. (Only the
			// single-shard estimate is guaranteed to move here: a per-shard
			// subgraph may already sit at the floor estimate.)
			live := decode[corenessResponse](t, get(t, ts.URL+"/coreness?v=0"))
			if shards == 1 && live.Coreness >= cr.Coreness {
				t.Fatalf("deletion did not lower the live estimate: %v vs %v", live, cr)
			}
			resp := get(t, fmt.Sprintf("%s/coreness?v=0&epoch=%d", ts.URL, frozen))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("retained read status %d", resp.StatusCode)
			}
			old := decode[corenessResponse](t, resp)
			if old.Coreness != cr.Coreness || old.Epoch != frozen || old.Mode != "retained" {
				t.Fatalf("retained read %+v, want coreness %v at epoch %d", old, cr.Coreness, frozen)
			}

			// Bulk at the frozen epoch agrees with the per-vertex frozen reads.
			resp = post(t, ts.URL+"/coreness/bulk",
				fmt.Sprintf(`{"vertices":[0,1,2],"epoch":%d}`, frozen))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("bulk retained status %d", resp.StatusCode)
			}
			bulk := decode[bulkResponse](t, resp)
			if bulk.Epoch != frozen {
				t.Fatalf("bulk epoch echo %d, want %d", bulk.Epoch, frozen)
			}
			for i, v := range bulk.Vertices {
				single := decode[corenessResponse](t,
					get(t, fmt.Sprintf("%s/coreness?v=%d&epoch=%d", ts.URL, v, frozen)))
				if bulk.Coreness[i] != single.Coreness {
					t.Fatalf("bulk[%d] = %v, single frozen read %v", i, bulk.Coreness[i], single.Coreness)
				}
			}

			// Top at the frozen epoch still ranks the clique first.
			resp = get(t, fmt.Sprintf("%s/top?k=3&epoch=%d", ts.URL, frozen))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("top retained status %d", resp.StatusCode)
			}
			top := decode[topResponse](t, resp)
			if top.Epoch != frozen || len(top.Vertices) != 3 {
				t.Fatalf("top retained %+v", top)
			}
			for _, v := range top.Vertices {
				if v > 7 {
					t.Fatalf("non-clique vertex %d in frozen top: %+v", v, top)
				}
			}

			// Future epochs: 404. Incompatible mode / junk epoch: 400.
			if resp := get(t, fmt.Sprintf("%s/coreness?v=0&epoch=%d", ts.URL, frozen+100)); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("future epoch status %d, want 404", resp.StatusCode)
			}
			if resp := get(t, fmt.Sprintf("%s/coreness?v=0&mode=nonsync&epoch=%d", ts.URL, frozen)); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("mode+epoch status %d, want 400", resp.StatusCode)
			}
			if resp := get(t, ts.URL+"/coreness?v=0&epoch=banana"); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("junk epoch status %d, want 400", resp.StatusCode)
			}

			// Stats surface the retention window.
			st := decode[statsResponse](t, get(t, ts.URL+"/stats"))
			if st.Retained != 16 || st.OldestEpoch > st.Epoch {
				t.Fatalf("stats retention %+v", st)
			}
		})
	}
}

// TestEvictedEpochGone ages an epoch out of a tiny retention window and
// expects 410 Gone from every requested-epoch form.
func TestEvictedEpochGone(t *testing.T) {
	ts := newTestServer(t, WithRetainedEpochs(1))
	post(t, ts.URL+"/edges/insert", triangleBody())
	frozen := decode[corenessResponse](t, get(t, ts.URL+"/coreness?v=0")).Epoch
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/edges/insert", fmt.Sprintf("%d %d\n", 10+i, 20+i))
	}
	for _, url := range []string{
		fmt.Sprintf("%s/coreness?v=0&epoch=%d", ts.URL, frozen),
		fmt.Sprintf("%s/top?k=2&epoch=%d", ts.URL, frozen),
	} {
		if resp := get(t, url); resp.StatusCode != http.StatusGone {
			t.Fatalf("GET %s status %d, want 410", url, resp.StatusCode)
		}
	}
	resp := post(t, ts.URL+"/coreness/bulk", fmt.Sprintf(`{"vertices":[0],"epoch":%d}`, frozen))
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("bulk evicted status %d, want 410", resp.StatusCode)
	}
	// Retention disabled: any retired epoch is gone, but the current one is
	// still servable (unpinned, per the option's only-the-current contract).
	ts0 := newTestServer(t, WithRetainedEpochs(0))
	post(t, ts0.URL+"/edges/insert", triangleBody())
	post(t, ts0.URL+"/edges/insert", "5 6\n")
	if resp := get(t, ts0.URL+"/coreness?v=0&epoch=1"); resp.StatusCode != http.StatusGone {
		t.Fatalf("retention-disabled retired read status %d, want 410", resp.StatusCode)
	}
	cur := decode[statsResponse](t, get(t, ts0.URL+"/stats")).Epoch
	resp = get(t, fmt.Sprintf("%s/coreness?v=0&epoch=%d", ts0.URL, cur))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retention-disabled current-epoch read status %d, want 200", resp.StatusCode)
	}
	if cr := decode[corenessResponse](t, resp); cr.Epoch != cur || cr.Mode != "retained" {
		t.Fatalf("retention-disabled current-epoch read %+v", cr)
	}
}

// TestUpdateEndpointValidation pins the /edges/insert and /edges/delete
// limits to parity with /edges/batch: out-of-range vertices are rejected
// with 400, and oversized batches or bodies with 413 — previously both
// endpoints skipped validation entirely and fed arbitrary input straight
// into the engine.
func TestUpdateEndpointValidation(t *testing.T) {
	for _, ep := range []string{"/edges/insert", "/edges/delete"} {
		t.Run(ep, func(t *testing.T) {
			ts := newTestServer(t, WithMaxBatchEdges(2))
			cases := []struct {
				name, body string
				status     int
			}{
				{"valid", "0 1\n1 2\n", http.StatusOK},
				{"out-of-range vertex", "0 500\n", http.StatusBadRequest},
				{"both out of range", "7000 500\n", http.StatusBadRequest},
				{"malformed line", "zap\n", http.StatusBadRequest},
				{"too many edges", "0 1\n1 2\n2 3\n", http.StatusRequestEntityTooLarge},
				{"oversized body", strings.Repeat("# padding line\n", 300), http.StatusRequestEntityTooLarge},
			}
			for _, tc := range cases {
				resp := post(t, ts.URL+ep, tc.body)
				if resp.StatusCode != tc.status {
					t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
				}
			}
		})
	}
}

// TestRejectedUpdatesDoNotCommit verifies a rejected text update leaves no
// trace in the engine: no batch, no edges.
func TestRejectedUpdatesDoNotCommit(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/edges/insert", triangleBody())
	before := decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if resp := post(t, ts.URL+"/edges/insert", "0 5000\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range insert status %d", resp.StatusCode)
	}
	after := decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if after.Batches != before.Batches || after.Edges != before.Edges || after.Inserted != before.Inserted {
		t.Fatalf("rejected update mutated stats: %+v -> %+v", before, after)
	}
}

// TestServerDurability drives batches over HTTP with the WAL attached,
// checks the /stats durability block, and restarts the server on the same
// directory: the recovered server must report the same epoch and serve the
// same coreness values.
func TestServerDurability(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithShards(2), WithWAL(dir, kcore.WALOptions{})}
	s1, err := New(100, lds.DefaultParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	post(t, ts.URL+"/edges/insert", triangleBody())
	post(t, ts.URL+"/edges/insert", "3 4\n4 5\n3 5\n2 3\n")
	post(t, ts.URL+"/edges/delete", "2 3\n")
	st := decode[statsResponse](t, get(t, ts.URL+"/stats"))
	if st.Durability == nil || st.Durability.LoggedBatches == 0 || st.Durability.Dir != dir {
		t.Fatalf("durability stats missing or empty: %+v", st.Durability)
	}
	want := decode[corenessResponse](t, get(t, ts.URL+"/coreness?v=4"))
	ts.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(100, lds.DefaultParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st2 := decode[statsResponse](t, get(t, ts2.URL+"/stats"))
	if st2.Epoch != st.Epoch || st2.Edges != st.Edges {
		t.Fatalf("recovered epoch/edges (%d,%d), want (%d,%d)", st2.Epoch, st2.Edges, st.Epoch, st.Edges)
	}
	if st2.Durability == nil || st2.Durability.RecoveredBatches == 0 {
		t.Fatalf("recovered durability stats: %+v", st2.Durability)
	}
	got := decode[corenessResponse](t, get(t, ts2.URL+"/coreness?v=4"))
	if got.Coreness != want.Coreness {
		t.Fatalf("recovered coreness %v, want %v", got.Coreness, want.Coreness)
	}

	// The durability block is absent without WithWAL.
	plain := newTestServer(t)
	if st := decode[statsResponse](t, get(t, plain.URL+"/stats")); st.Durability != nil {
		t.Fatalf("durability block present without WAL: %+v", st.Durability)
	}
}

// TestServerSnapshotRequiresWAL pins the error contract of the durability
// methods on a memory-only server.
func TestServerSnapshotRequiresWAL(t *testing.T) {
	s, err := New(10, lds.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot without WAL succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close without WAL: %v", err)
	}
}
