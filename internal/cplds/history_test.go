package cplds_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"kcore/internal/cplds"
	"kcore/internal/exact"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/parallel"
	"kcore/internal/shard"
)

// The history checker: readers race a writer that applies seeded mixed
// batches, every read is logged with the commit state around it, and after
// the run each logged value is checked against the level vector the writer
// recorded at each committed epoch.

// historyTarget is one engine under test: the CPLDS directly, or a
// one-shard shard.Engine in front of it. Values are levels for the CPLDS
// and estimates for the engine; est maps a value to its estimate, which is
// what retained reads return.
type historyTarget struct {
	c      *cplds.CPLDS                                     // the CPLDS whose commit state brackets each read
	read   func(v uint32) float64                           // linearizable single read
	readAt func(vs []uint32, out []float64, e uint64) error // retained estimates at a committed epoch
	snap   func(out []float64)                              // quiescent values of every vertex
	est    func(val float64) float64
	insert func([]graph.Edge) int
	delete func([]graph.Edge) int
	graph  func() *graph.CSR
}

func cpldsTarget(n int, p lds.Params) historyTarget {
	c := cplds.New(n, p)
	levels := make([]int32, n)
	return historyTarget{
		c:      c,
		read:   func(v uint32) float64 { return float64(c.ReadLevel(v)) },
		readAt: c.ReadManyAt,
		snap: func(out []float64) {
			c.Levels(levels)
			for v, l := range levels {
				out[v] = float64(l)
			}
		},
		est:    func(val float64) float64 { return c.S.EstimateFromLevel(int32(val)) },
		insert: c.InsertBatch,
		delete: c.DeleteBatch,
		graph:  func() *graph.CSR { return c.Graph().Snapshot() },
	}
}

func shardTarget(n int, p lds.Params) historyTarget {
	e := shard.New(n, 1, p)
	c := e.LocalCPLDS(0)
	levels := make([]int32, n)
	return historyTarget{
		c:      c,
		read:   e.Read,
		readAt: e.ReadManyAt,
		snap: func(out []float64) {
			c.Levels(levels)
			for v, l := range levels {
				out[v] = c.S.EstimateFromLevel(l)
			}
		},
		est:    func(val float64) float64 { return val },
		insert: e.Insert,
		delete: e.Delete,
		graph:  e.Snapshot,
	}
}

// readLog is one linearizable single read: vertex, value, and the epoch
// range the value must come from.
type readLog struct {
	v      uint32
	val    float64
	lo, hi uint64
}

// atLog is one retained read at a committed epoch.
type atLog struct {
	vs    []uint32
	vals  []float64
	epoch uint64
	err   error
}

// runHistory applies the seeded mixed batches to tgt while readers log,
// then checks every log against the recorded per-epoch values and the
// final estimates against exact coreness.
func runHistory(t *testing.T, tgt historyTarget, n int, p lds.Params, seed int64) {
	const (
		readers  = 2
		retain   = 64
		perState = 256 // logged reads per reader per seq value
	)
	tgt.c.SetRetainedEpochs(retain)
	batches := gen.MixedBatches(gen.ChungLu(n, 8*n, 2.3, seed), n/10, 0.4, seed+1)

	// history[e] is every vertex's value at committed epoch e, recorded
	// by the writer after each call returns (the writer is the only
	// updater, so the structure is quiescent between its calls).
	history := map[uint64][]float64{}
	record := func() {
		e := tgt.c.Epoch()
		if _, ok := history[e]; ok {
			return
		}
		vals := make([]float64, n)
		tgt.snap(vals)
		history[e] = vals
	}
	record()

	logs := make([][]readLog, readers)
	atLogs := make([][]atLog, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(r)))
			seen, inState := uint64(0), 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%64 == 63 {
					// A retained read one to four epochs back from the
					// epoch just observed.
					_, cur := tgt.c.CutBegin(0)
					d := uint64(1 + rng.Intn(4))
					if cur < d {
						continue
					}
					vs := make([]uint32, 8)
					for j := range vs {
						vs[j] = uint32(rng.Intn(n))
					}
					vals := make([]float64, len(vs))
					err := tgt.readAt(vs, vals, cur-d)
					atLogs[r] = append(atLogs[r], atLog{vs, vals, cur - d, err})
					continue
				}
				v := uint32(rng.Intn(n))
				seq, lo := tgt.c.CutBegin(0) // the optimistic attempt only reads seq
				if seq != seen {
					seen, inState = seq, 0
				} else if inState == perState {
					runtime.Gosched() // enough reads of this state; let the writer move
					continue
				}
				inState++
				val := tgt.read(v)
				_, hi := tgt.c.CutBegin(0)
				logs[r] = append(logs[r], readLog{v, val, lo, hi})
			}
		}(r)
	}
	for _, b := range batches {
		tgt.insert(b.Insertions)
		record()
		tgt.delete(b.Deletions)
		record()
	}
	close(stop)
	wg.Wait()

	if err := tgt.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkReads(t, logs, history)
	checkAtReads(t, tgt.est, atLogs, history)
	checkApprox(t, tgt, n, p)
}

// checkReads checks every logged single read against the history: each
// read must return v's value at an epoch committed during the read, and
// each reader's reads must fit non-decreasing epochs, which the check
// assigns greedily, taking the lowest epoch that fits each read. A reader
// that saw some vertex's value after batch e and then another mover of
// batch e at its value before e has no such assignment: whole batches
// become visible at once.
func checkReads(t *testing.T, logs [][]readLog, history map[uint64][]float64) {
	t.Helper()
	total := 0
	for r, rl := range logs {
		total += len(rl)
		floor := uint64(0)
		for i, l := range rl {
			at, ok := uint64(0), false
			for e := max(l.lo, floor); e <= l.hi; e++ {
				if vals, rec := history[e]; rec && vals[l.v] == l.val {
					at, ok = e, true
					break
				}
			}
			if !ok {
				inWindow := false
				for e := l.lo; e <= l.hi; e++ {
					if vals, rec := history[e]; rec && vals[l.v] == l.val {
						inWindow = true
					}
				}
				if inWindow {
					t.Fatalf("reader %d read %d: vertex %d = %v only fits epochs before %d, which this reader already saw (a batch became visible in parts)",
						r, i, l.v, l.val, floor)
				}
				t.Fatalf("reader %d read %d: vertex %d = %v is its value at no epoch in [%d, %d]",
					r, i, l.v, l.val, l.lo, l.hi)
			}
			floor = at
		}
	}
	if total == 0 {
		t.Fatal("no reads logged")
	}
}

// checkAtReads checks every retained read: within the retention window it
// must succeed and return the values of the epoch it asked for.
func checkAtReads(t *testing.T, est func(float64) float64, logs [][]atLog, history map[uint64][]float64) {
	t.Helper()
	for r, al := range logs {
		for i, a := range al {
			if a.err != nil {
				t.Fatalf("reader %d retained read %d at epoch %d: %v", r, i, a.epoch, a.err)
			}
			want := history[a.epoch]
			for j, v := range a.vs {
				if w := est(want[v]); a.vals[j] != w {
					t.Fatalf("reader %d retained read %d at epoch %d: vertex %d = %v, want %v",
						r, i, a.epoch, v, a.vals[j], w)
				}
			}
		}
	}
}

// checkApprox checks the quiescent estimates against exact coreness.
func checkApprox(t *testing.T, tgt historyTarget, n int, p lds.Params) {
	t.Helper()
	core := exact.Parallel(tgt.graph())
	bound := p.ApproxFactor() + 1e-9
	for v := range n {
		est := tgt.c.Read(uint32(v))
		k, e := math.Max(float64(core[v]), 1), math.Max(est, 1)
		if r := math.Max(e/k, k/e); r > bound {
			t.Fatalf("vertex %d: estimate %.3f vs coreness %d (ratio %.3f > %.3f)", v, est, core[v], r, bound)
		}
	}
}

// TestHistoryLinearizableReads runs the history checker on the CPLDS and
// on a one-shard engine, at two and four batch workers.
func TestHistoryLinearizableReads(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 300
	}
	p := lds.DefaultParams()
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	for _, workers := range []int{2, 4} {
		for name, mk := range map[string]func(int, lds.Params) historyTarget{
			"cplds": cpldsTarget, "shard": shardTarget,
		} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				parallel.SetWorkers(workers)
				runHistory(t, mk(n, p), n, p, int64(100+workers))
			})
		}
	}
}
