// Command benchmark is the repository's one end-to-end and per-layer
// benchmark; see README.md in this directory and BENCHMARK.json at the root.
//
//	go run -C benchmark . -seed 1                  all four workloads, end to end
//	go run -C benchmark . -seed 1 -trace 1         the traced per-layer replay
//	go run -C benchmark . -workload W -seed 1 -seconds 10 -trace 0
//	                                               one workload; the last line of
//	                                               output is the driver's JSON
//	go run -C benchmark . -repeat 5 [-seed-step 1] spread over several runs
//	go run -C benchmark . -compare a.json b.json   apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// loadgenProcs is GOMAXPROCS of this process: the load shape is two client
// roles, one per core of the box the benchmark was written on.
const loadgenProcs = 2

// runDeadline bounds one workload run; the driver allows 180 s.
const runDeadline = 170 * time.Second

// report is what result.json holds: the runs plus everything needed to
// reproduce or compare them.
type report struct {
	Seed        int64     `json:"seed"`
	Trace       bool      `json:"trace"`
	Commit      string    `json:"commit"`
	NProc       int       `json:"nproc"`
	GoMaxProcs  int       `json:"gomaxprocs"`
	ServerProcs int       `json:"server_gomaxprocs"`
	IngestProcs int       `json:"ingest_server_gomaxprocs"`
	GoVersion   string    `json:"go_version"`
	Sizing      sizing    `json:"sizing"`
	Runs        []*result `json:"runs"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
	seed := flag.Int64("seed", 1, "the only input of the generator")
	seconds := flag.Float64("seconds", 10, "length of each measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced in-process replay and reports per-layer metrics instead")
	repeat := flag.Int("repeat", 1, "run this many times and print each metric's spread")
	seedStep := flag.Int64("seed-step", 0, "with -repeat, add this to the seed after every run")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()

	e, err := findEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		return compareFiles(e, flag.Args())
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		flag.Usage()
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	z := fullSizing(*seconds)
	if err := z.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	runtime.GOMAXPROCS(loadgenProcs)
	// Servers die with the harness however it ends: normal return and errors
	// through the deferred killAll, signals and the deadline below, a crash
	// through Pdeathsig.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fail("interrupted")
	}()

	if *trace == 0 {
		if err := e.buildServer(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if err := os.MkdirAll(e.outDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	rep := &report{
		Seed: *seed, Trace: *trace == 1, Commit: commit(e), NProc: runtime.NumCPU(),
		GoMaxProcs: loadgenProcs, ServerProcs: serverProcs, IngestProcs: ingestProcs, GoVersion: runtime.Version(), Sizing: z,
	}
	for i := 0; i < *repeat; i++ {
		for _, name := range names {
			r, err := runWorkload(e, name, *seed+int64(i)**seedStep, z, *trace == 1)
			if r != nil {
				r.print(os.Stdout)
			}
			if err != nil {
				// A run that fails its oracle reports no result.
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			rep.Runs = append(rep.Runs, r)
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, rep.Runs)
	}
	if *trace == 1 {
		printLayerShares(os.Stdout, rep.Runs)
	}
	out := filepath.Join(e.outDir(), "result.json")
	if *trace == 1 {
		out = filepath.Join(e.outDir(), "result-trace.json")
	}
	if err := writeJSON(out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", out)
	if *workload != "" {
		// The driver reads the last line of standard output.
		last := rep.Runs[len(rep.Runs)-1]
		line, err := json.Marshal(last.driverLine())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return 0
}

// fail ends the process from outside the main goroutine, servers first.
func fail(why string) {
	fmt.Fprintln(os.Stderr, "benchmark:", why)
	killAll()
	os.Exit(1)
}

// runWorkload runs one workload once, end to end or traced, under the
// deadline.
func runWorkload(e *env, name string, seed int64, z sizing, traced bool) (*result, error) {
	watchdog := time.AfterFunc(runDeadline, func() { fail(name + ": run exceeded " + runDeadline.String()) })
	defer watchdog.Stop()
	in, err := newInputs(seed, z)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTraced(e, name, in, seed)
	}
	retries := e.setupRetries
	var r *result
	switch name {
	case wLib:
		r, err = runLib(in, seed)
	case wIngest:
		r, err = runIngest(e, in, seed)
	case wReplica:
		r, err = runReplica(e, in, seed)
	case wFeed:
		r, err = runFeed(e, in, seed)
	default:
		return nil, errors.New("unknown workload " + name)
	}
	if r != nil {
		r.Counts["setup_retries"] = int64(e.setupRetries - retries)
	}
	return r, err
}

// driverLine is the one JSON object the driver parses: exactly the declared
// metrics, value and unit only.
func (r *result) driverLine() map[string]any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]vu, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = vu{m.Value, m.Unit}
	}
	return map[string]any{
		"correct": true, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": metrics,
	}
}

// commit names the working tree's commit, when the checkout is a git one.
func commit(e *env) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
