package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// declared is BENCHMARK.json, the contract this harness is written to.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclared(e *env) (*declared, error) {
	data, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// series collects, per workload and metric, the values of a set of runs.
type series map[string]map[string][]float64

func collect(runs []*result) series {
	s := series{}
	for _, r := range runs {
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for _, group := range []map[string]metric{r.Metrics, r.Extras} {
			for name, m := range group {
				s[r.Workload][name] = append(s[r.Workload][name], m.Value)
			}
		}
	}
	return s
}

// printSpread prints, per workload and metric, the median, quartiles,
// interquartile range over median (the driver's steadiness measure) and
// range over median of a set of runs.
func printSpread(w io.Writer, runs []*result) {
	s := collect(runs)
	fmt.Fprintf(w, "\n%-20s %-26s %3s %14s %14s %14s %8s %8s\n", "workload", "metric", "n", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, wl := range sortedKeys(s) {
		for _, name := range sortedKeys(s[wl]) {
			v := s[wl][name]
			med := median(v)
			q1, q3 := quartiles(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Fprintf(w, "%-20s %-26s %3d %14.6g %14.6g %14.6g %8.4f %8.4f\n", wl, name, len(v), med, q1, q3, (q3-q1)/med, (hi-lo)/med)
		}
	}
}

// compareFiles applies BENCHMARK.json's bounds to two result files: for
// every gated metric and workload the new median may be worse than the old
// by at most the bound, and no workload may fail a larger share of its
// operations. It returns the process exit code.
func compareFiles(e *env, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare old.json new.json")
		return 2
	}
	decl, err := loadDeclared(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var reports [2]report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reports[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 1
		}
	}
	if reports[0].Trace != reports[1].Trace {
		fmt.Fprintln(os.Stderr, "benchmark: one file is a traced run, the other is not")
		return 1
	}
	metrics := decl.EndToEnd
	if reports[0].Trace {
		metrics = decl.PerLayer // no bounds: printed, never a regression
	}
	old, new := collect(reports[0].Runs), collect(reports[1].Runs)
	regressions := 0
	fmt.Printf("%-20s %-26s %14s %14s %9s %7s\n", "workload", "metric", "old median", "new median", "worse by", "bound")
	for _, wl := range workloadNames {
		if old[wl] == nil || new[wl] == nil {
			continue
		}
		for _, m := range metrics {
			a, b := median(old[wl][m.Name]), median(new[wl][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if m.Bound > 0 && !(worse <= m.Bound) {
				verdict = "  REGRESSION"
				regressions++
			}
			fmt.Printf("%-20s %-26s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", wl, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
		fa, fb := failedShare(reports[0].Runs, wl), failedShare(reports[1].Runs, wl)
		if fb > fa {
			fmt.Printf("%-20s failed-operation share rose from %.6f to %.6f  REGRESSION\n", wl, fa, fb)
			regressions++
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s)\n", regressions)
		return 1
	}
	fmt.Println("no regression")
	return 0
}

func failedShare(runs []*result, workload string) float64 {
	var attempted, failed int64
	for _, r := range runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
