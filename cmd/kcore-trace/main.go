// Command kcore-trace synthesizes, inspects and replays update/read
// workload traces against the CPLDS.
//
// Usage:
//
//	kcore-trace -gen -profile dblp -batch 5000 -reads 100 -delfrac 0.2 -o w.trace
//	kcore-trace -info w.trace
//	kcore-trace -replay w.trace [-shards 4]
package main

import (
	"flag"
	"fmt"
	"os"

	"kcore/internal/lds"
	"kcore/internal/trace"
)

func main() {
	genFlag := flag.Bool("gen", false, "synthesize a trace")
	info := flag.String("info", "", "print statistics of a trace file")
	replay := flag.String("replay", "", "replay a trace file against the CPLDS")
	profile := flag.String("profile", "dblp", "dataset profile (gen)")
	batch := flag.Int("batch", 5000, "update batch size (gen)")
	reads := flag.Int("reads", 100, "read probes per batch (gen)")
	delFrac := flag.Float64("delfrac", 0.2, "fraction of each batch deleted later (gen)")
	seed := flag.Int64("seed", 1, "random seed (gen)")
	shards := flag.Int("shards", 1, "engine shards for -replay (1 = single CPLDS)")
	out := flag.String("o", "workload.trace", "output file (gen)")
	flag.Parse()

	var err error
	switch {
	case *genFlag:
		err = doGen(*profile, *batch, *reads, *delFrac, *seed, *out)
	case *info != "":
		err = doInfo(*info)
	case *replay != "":
		err = doReplay(*replay, *shards)
	default:
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kcore-trace:", err)
		os.Exit(1)
	}
}

func doGen(profile string, batch, reads int, delFrac float64, seed int64, out string) error {
	t, err := trace.Synthesize(profile, batch, reads, delFrac, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		return err
	}
	s := t.Summarize()
	fmt.Printf("wrote %s: %d ops (%d inserts/%d edges, %d deletes/%d edges, %d probes/%d reads)\n",
		out, len(t.Ops), s.Inserts, s.InsertEdges, s.Deletes, s.DeleteEdges, s.ReadProbes, s.Reads)
	return nil
}

func load(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadFrom(f)
}

func doInfo(path string) error {
	t, err := load(path)
	if err != nil {
		return err
	}
	s := t.Summarize()
	fmt.Printf("vertices: %d\nops: %d\ninsert batches: %d (%d edges)\ndelete batches: %d (%d edges)\nread probes: %d (%d reads)\n",
		t.NumVertices, len(t.Ops), s.Inserts, s.InsertEdges, s.Deletes, s.DeleteEdges, s.ReadProbes, s.Reads)
	return nil
}

func doReplay(path string, shards int) error {
	t, err := load(path)
	if err != nil {
		return err
	}
	res, err := trace.Replay(t, lds.DefaultParams(), shards)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d ops: %d edges applied, update time %v, final edges %d\n",
		res.Ops, res.EdgesApplied, res.UpdateTime, res.FinalEdges)
	fmt.Printf("read latency: %s\n", res.ReadLat)
	return nil
}
