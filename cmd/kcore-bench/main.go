// Command kcore-bench runs the experiment suite reproducing the paper's
// evaluation (Table 1 and Figures 3–7) on the synthetic dataset stand-ins.
//
// Usage:
//
//	kcore-bench -exp all                          # everything (minutes)
//	kcore-bench -exp table1
//	kcore-bench -exp fig3 -datasets dblp,yt,ctr
//	kcore-bench -exp fig4 -datasets yt,dblp -batchsizes 100,1000,10000,100000
//	kcore-bench -exp fig5 -datasets dblp
//	kcore-bench -exp fig6 -datasets tiny,dblp
//	kcore-bench -exp fig7 -datasets dblp,lj -threads 1,2,4,8,15
//	kcore-bench -exp shardscale -datasets dblp -shards 1,2,4,8
//
// Every run prints the same rows/series the paper reports, plus the
// shard-scaling experiment added by this repo.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kcore/internal/bench"
	"kcore/internal/lds"
	"kcore/internal/plds"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, fig3, fig4, fig5, fig6, fig7, shardscale")
	datasets := flag.String("datasets", "", "comma-separated dataset profiles (default per experiment)")
	batchSizes := flag.String("batchsizes", "100,1000,10000,50000", "comma-separated batch sizes (fig4)")
	threads := flag.String("threads", "1,2,4,8,15", "comma-separated thread counts (fig7)")
	shards := flag.String("shards", "1,2,4,8", "comma-separated shard counts (shardscale)")
	batch := flag.Int("batch", 10000, "update batch size")
	readers := flag.Int("readers", 4, "reader goroutines")
	writers := flag.Int("writers", 4, "writer (update) parallelism")
	maxBatches := flag.Int("maxbatches", 4, "measured batches per run")
	trials := flag.Int("trials", 1, "trials per configuration (paper: 11)")
	baseFrac := flag.Float64("basefrac", 0.5, "fraction of edges pre-loaded before measurement")
	delta := flag.Float64("delta", 0.2, "LDS delta")
	lambda := flag.Float64("lambda", 9, "LDS lambda")
	flag.Parse()

	cfg := bench.Config{
		Kind:       plds.Insert,
		BatchSize:  *batch,
		Readers:    *readers,
		Writers:    *writers,
		BaseFrac:   *baseFrac,
		MaxBatches: *maxBatches,
		Trials:     *trials,
		Seed:       1,
		Params:     lds.Params{Delta: *delta, Lambda: *lambda},
	}
	if err := run(*exp, splitList(*datasets), parseInts(*batchSizes), parseInts(*threads), parseInts(*shards), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "kcore-bench:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcore-bench: bad integer %q\n", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func run(exp string, datasets []string, batchSizes, threads, shards []int, cfg bench.Config) error {
	// Default dataset lists per experiment (paper's choices, stand-ins).
	latencyDefault := []string{"dblp", "wiki", "yt", "ctr"}
	sweepDefault := []string{"yt", "dblp"}
	errorDefault := []string{"tiny", "dblp"}
	scaleDefault := []string{"dblp"}
	pick := func(def []string) []string {
		if len(datasets) > 0 {
			return datasets
		}
		return def
	}
	w := os.Stdout
	switch exp {
	case "table1":
		rows, err := bench.Table1(datasets)
		if err != nil {
			return err
		}
		bench.PrintTable1(w, rows)
		return nil
	case "fig3":
		return bench.Figure3(w, pick(latencyDefault), cfg)
	case "fig4":
		return bench.Figure4(w, pick(sweepDefault), batchSizes, cfg)
	case "fig5":
		return bench.Figure5(w, pick(latencyDefault), cfg)
	case "fig6":
		return bench.Figure6(w, pick(errorDefault), cfg)
	case "fig7":
		return bench.Figure7(w, pick(scaleDefault), threads, cfg)
	case "shardscale":
		return bench.FigureShards(w, pick(scaleDefault), shards, cfg)
	case "all":
		rows, err := bench.Table1(datasets)
		if err != nil {
			return err
		}
		bench.PrintTable1(w, rows)
		fmt.Fprintln(w)
		if err := bench.Figure3(w, pick(latencyDefault), cfg); err != nil {
			return err
		}
		if err := bench.Figure4(w, pick(sweepDefault), batchSizes, cfg); err != nil {
			return err
		}
		if err := bench.Figure5(w, pick(latencyDefault), cfg); err != nil {
			return err
		}
		if err := bench.Figure6(w, pick(errorDefault), cfg); err != nil {
			return err
		}
		if err := bench.Figure7(w, pick(scaleDefault), threads, cfg); err != nil {
			return err
		}
		return bench.FigureShards(w, pick(scaleDefault), shards, cfg)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
