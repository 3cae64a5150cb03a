// Command kcore computes k-core decompositions of edge-list files.
//
// It reads a whitespace-separated edge list (one "u v" pair per line, '#'
// comments allowed) and prints per-vertex coreness values, a coreness
// histogram, or summary statistics.
//
// Usage:
//
//	kcore [-mode exact|approx] [-stats] [-hist] [-top N] <edgelist>
//	kcore -mode approx -delta 0.2 -lambda 9 graph.txt
//
// With -mode approx the graph is loaded through the dynamic CPLDS in
// batches and approximate coreness estimates are reported, demonstrating
// the dynamic path; -mode exact (default) uses static parallel peeling.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"kcore/internal/exact"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/plds"
)

func main() {
	mode := flag.String("mode", "exact", "decomposition mode: exact or approx")
	delta := flag.Float64("delta", 0.2, "approximation parameter delta (approx mode)")
	lambda := flag.Float64("lambda", 9, "approximation parameter lambda (approx mode)")
	batch := flag.Int("batch", 100000, "batch size for dynamic loading (approx mode)")
	stats := flag.Bool("stats", false, "print summary statistics only")
	hist := flag.Bool("hist", false, "print a coreness histogram instead of per-vertex values")
	top := flag.Int("top", 0, "print only the N vertices with the highest coreness")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kcore [flags] <edgelist-file>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *mode, *delta, *lambda, *batch, *stats, *hist, *top); err != nil {
		fmt.Fprintln(os.Stderr, "kcore:", err)
		os.Exit(1)
	}
}

func run(path, mode string, delta, lambda float64, batch int, statsOnly, hist bool, top int) error {
	if batch < 1 {
		return fmt.Errorf("-batch must be at least 1, got %d", batch)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	edges, n, err := graph.ReadEdgeList(f)
	if err != nil {
		return err
	}
	var core []float64
	switch mode {
	case "exact":
		ex := exact.Parallel(graph.CSRFromEdges(n, edges))
		core = make([]float64, n)
		for v, c := range ex {
			core[v] = float64(c)
		}
	case "approx":
		p := plds.New(n, lds.Params{Delta: delta, Lambda: lambda}, nil)
		for _, b := range gen.Batches(edges, batch) {
			p.InsertBatch(b)
		}
		core = make([]float64, n)
		for v := 0; v < n; v++ {
			core[v] = p.Estimate(uint32(v))
		}
	default:
		return fmt.Errorf("unknown mode %q (want exact or approx)", mode)
	}

	switch {
	case statsOnly:
		printStats(n, len(edges), core)
	case hist:
		printHist(core)
	case top > 0:
		printTop(core, top)
	default:
		for v, c := range core {
			fmt.Printf("%d %g\n", v, c)
		}
	}
	return nil
}

func printStats(n, m int, core []float64) {
	maxC, sum := 0.0, 0.0
	for _, c := range core {
		sum += c
		if c > maxC {
			maxC = c
		}
	}
	fmt.Printf("vertices: %d\nedges: %d\nmax coreness: %g\nmean coreness: %.3f\n",
		n, m, maxC, sum/float64(n))
}

func printHist(core []float64) {
	counts := map[float64]int{}
	for _, c := range core {
		counts[c]++
	}
	keys := make([]float64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	fmt.Printf("%-12s %s\n", "coreness", "vertices")
	for _, k := range keys {
		fmt.Printf("%-12g %d\n", k, counts[k])
	}
}

func printTop(core []float64, top int) {
	type vc struct {
		v uint32
		c float64
	}
	all := make([]vc, len(core))
	for v, c := range core {
		all[v] = vc{uint32(v), c}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v < all[j].v
	})
	if top > len(all) {
		top = len(all)
	}
	for _, x := range all[:top] {
		fmt.Printf("%d %g\n", x.v, x.c)
	}
}
