package main

import (
	"errors"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestWorkloadsSmall runs all four workloads, end to end and traced, at about
// 1/50 of the recorded load shape: the oracle must pass, and what the runs
// emit must be exactly what BENCHMARK.json declares.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("starts kcore-server processes")
	}
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclared(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.buildServer(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(e.outDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)

	var declaredWorkloads []string
	for _, w := range decl.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	if !slices.Equal(declaredWorkloads, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", declaredWorkloads, workloadNames)
	}

	z := smallSizing()
	for _, traced := range []bool{false, true} {
		want := decl.EndToEnd
		if traced {
			want = decl.PerLayer
		}
		for _, name := range workloadNames {
			start := time.Now()
			r, err := runWorkload(e, name, 1, z, traced)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			t.Logf("%s traced=%v: %v, attempted=%d", name, traced, time.Since(start).Round(time.Millisecond), r.Attempted)
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: attempted=%d failed=%d", name, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json declares %d", name, traced, len(r.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: declared metric %s not emitted", name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.Name, m.Value)
				}
			}
			for _, group := range []map[string]metric{r.Metrics, r.Extras} {
				for metricName, m := range group {
					if !nameRE.MatchString(metricName) {
						t.Errorf("%s: metric name %q", name, metricName)
					}
					if !unitRE.MatchString(m.Unit) {
						t.Errorf("%s: metric %s has unit %q", name, metricName, m.Unit)
					}
				}
			}
			if !nameRE.MatchString(name) {
				t.Errorf("workload name %q", name)
			}
		}
	}
}

// TestDeclaredBounds checks BENCHMARK.json against the rules the issue and
// the driver set for it.
func TestDeclaredBounds(t *testing.T) {
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclared(e)
	if err != nil {
		t.Fatal(err)
	}
	hasSetup := false
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == mSetup && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if decl.RunSeconds < 10 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds=%d", decl.RunSeconds)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the driver applies to run values.
func TestQuartiles(t *testing.T) {
	v := []float64{7, 1, 3, 10, 2, 9, 4, 8, 5, 6}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
}

// TestInputsRepeat checks that the generator is a function of the seed and
// that its batches never contain a no-op edge.
func TestInputsRepeat(t *testing.T) {
	z := smallSizing()
	a, err := newInputs(7, z)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInputs(7, z)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.ring, b.ring) || !slices.Equal(a.ids, b.ids) {
		t.Fatal("same seed, different inputs")
	}
	live := map[[2]uint32]bool{}
	for _, e := range a.window(0, z.PreloadEdges) {
		live[[2]uint32{e.U, e.V}] = true
	}
	k := z.FeedBatchEdges
	batches := 3 * z.PoolEdges / k // wraps the ring
	for i := 0; i < batches; i++ {
		ins, del := a.batch(i, k)
		for _, e := range ins {
			if live[[2]uint32{e.U, e.V}] {
				t.Fatalf("batch %d inserts live edge %v", i, e)
			}
			live[[2]uint32{e.U, e.V}] = true
		}
		for _, e := range del {
			if !live[[2]uint32{e.U, e.V}] {
				t.Fatalf("batch %d deletes absent edge %v", i, e)
			}
			delete(live, [2]uint32{e.U, e.V})
		}
	}
	want := a.live(batches, k)
	if len(live) != len(want) {
		t.Fatalf("%d live edges, live() says %d", len(live), len(want))
	}
	for _, e := range want {
		if !live[[2]uint32{e.U, e.V}] {
			t.Fatalf("live() lists %v, which is not live", e)
		}
	}
}

// TestSetUpRetriesOnce checks that a failed set-up is tried exactly once
// more, in a fresh directory, and that the retry is counted.
func TestSetUpRetriesOnce(t *testing.T) {
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	failing := 1
	up := func(dir string) (*deployment, time.Duration, error) {
		dirs = append(dirs, dir)
		if len(dirs) <= failing {
			return nil, 0, errors.New("preload hung")
		}
		return &deployment{}, time.Second, nil
	}
	d, dir, took, err := e.setUp("retry-test", up)
	if err != nil || d == nil || took != time.Second || e.setupRetries != 1 {
		t.Fatalf("setUp = %v, %q, %v, %v with %d retries", d, dir, took, err, e.setupRetries)
	}
	defer os.RemoveAll(dir)
	if len(dirs) != 2 || dirs[0] == dirs[1] || dir != dirs[1] {
		t.Errorf("set-up ran in %v, returned %q", dirs, dir)
	}
	if _, err := os.Stat(dirs[0]); !os.IsNotExist(err) {
		t.Errorf("directory of the failed attempt still there: %v", err)
	}

	dirs, failing = nil, 2
	if _, _, _, err := e.setUp("retry-test", up); err == nil || len(dirs) != 2 {
		t.Errorf("a set-up failing twice returned %v after %d attempts", err, len(dirs))
	}
}
