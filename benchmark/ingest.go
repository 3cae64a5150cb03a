package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

func ingestArgs(dir string) []string {
	// No -snapshot-every: an automatic snapshot runs asynchronously, so log
	// size and replay length would vary from run to run.
	return []string{"-shards", "1", "-wal", filepath.Join(dir, "wal"), "-fsync", "interval"}
}

// ingestProcs is GOMAXPROCS of this workload's server: one engine worker, as
// the issue prescribes, and one P for everything else. A second worker buys
// nothing on 10 000-edge batches (with serverProcs the same stream runs
// 10-15 % slower), and every barrier between the two workers then waits for
// whichever of the box's two virtual CPUs the host hands over last, which
// the closed-loop writer turns into throughput: the driver refused the
// benchmark for the spread that gave (README.md, Repeatability). The price
// is paid by the read probe: with one P a read that arrives while a batch is
// running waits for the Go scheduler's 10 ms preemption tick, so the probe
// measures that wait and is paced at a rate the single P keeps up with.
//
// One worker also keeps a defect of the product out of the runs: with two,
// a preload batch has been seen to spin for ever in cplds.findRoot under
// union (called from plds.noteFirstMoves through parallel.For); README.md
// has the stack.
const ingestProcs = 1

// ingestUp starts the server, preloads it and applies the warm-up batches.
func ingestUp(e *env, in *inputs, dir string) (*deployment, time.Duration, error) {
	t0 := time.Now()
	s, err := e.launch(ingestProcs, dir, "server", in.z, ingestArgs(dir)...)
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{servers: []*node{s}}
	c := newClient(s.addr)
	defer c.close()
	if err := c.preload(in); err != nil {
		return d, 0, err
	}
	k := in.z.IngestBatchEdges
	for i := 0; i < in.z.warmup(in.z.count(in.z.IngestBatchesPerS)); i++ {
		ins, del := in.batch(i, k)
		if err := c.applyBatch(ins, del); err != nil {
			return d, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return d, time.Since(t0), nil
}

type corenessReply struct {
	Coreness float64 `json:"coreness"`
	Epoch    uint64  `json:"epoch"`
}

// runIngest is svc_ingest_durable: one durable server, a closed-loop writer
// posting large JSON batches with one synchronous snapshot on the way, a
// lightly paced single-vertex reader, then SIGKILL and recovery.
func runIngest(e *env, in *inputs, seed int64) (r *result, err error) {
	z := in.z
	r = newResult(wIngest, seed)
	batches, k := z.count(z.IngestBatchesPerS), z.IngestBatchEdges
	warm := z.warmup(batches)
	snapAfter := min(max(int(math.Round(float64(batches)*z.IngestSnapshotAt)), 1), batches)
	r.Counts["batches"] = int64(batches)
	r.Counts["warmup_batches"] = int64(warm)
	r.Counts["edge_ops"] = int64(batches) * int64(2*k)
	r.Counts["tail_batches"] = int64(batches - snapAfter)

	up := func(dir string) (*deployment, time.Duration, error) { return ingestUp(e, in, dir) }
	d, dir, setup, err := e.setUp(wIngest, up)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer d.release(&err)
	srv := d.servers[0]
	wc, rc := newClient(srv.addr), newClient(srv.addr)
	defer wc.close()
	defer rc.close()

	logBytes := func() (int64, error) {
		st, err := wc.stats()
		if err != nil {
			return 0, err
		}
		if st.Durability == nil {
			return 0, fmt.Errorf("/stats has no durability block")
		}
		return st.Durability.LogBytes, nil
	}
	logStart, err := logBytes()
	if err != nil {
		return nil, err
	}

	// Reader: open loop until the writer is done.
	var (
		stop       atomic.Bool
		readerDone = make(chan struct{})
		readTimes  samples
		regressed  int64
		readerWall time.Duration
	)
	start := time.Now()
	rp := newPacer(start, z.IngestReadsPerS)
	go func() {
		defer close(readerDone)
		var last uint64
		for i := 0; !stop.Load(); i++ {
			due := rp.wait(i)
			var rep corenessReply
			path := "/coreness?v=" + strconv.FormatUint(uint64(in.ids[i%len(in.ids)]), 10)
			if err := rc.do(http.MethodGet, path, nil, &rep); err != nil {
				continue
			}
			readTimes = append(readTimes, time.Since(due))
			if rep.Epoch < last {
				regressed++
			}
			last = rep.Epoch
		}
		readerWall = time.Since(start)
	}()

	// Writer: closed loop.
	batchTimes := make(samples, 0, batches)
	done := make([]time.Duration, 0, batches) // completion times since start
	var appended int64                        // WAL bytes appended during the measured phase
	var snapshot time.Duration
	var writeErr error
	for i := 0; i < batches && writeErr == nil; i++ {
		ins, del := in.batch(warm+i, k)
		t0 := time.Now()
		if writeErr = wc.applyBatch(ins, del); writeErr != nil {
			break
		}
		now := time.Now()
		batchTimes = append(batchTimes, now.Sub(t0))
		done = append(done, now.Sub(start))
		if i+1 == snapAfter {
			// A snapshot prunes the segments it covers, so log_bytes is read
			// on both sides of it.
			var before int64
			if before, writeErr = logBytes(); writeErr != nil {
				break
			}
			t0 := time.Now()
			if writeErr = wc.do(http.MethodPost, "/snapshot", nil, nil); writeErr != nil {
				break
			}
			snapshot = time.Since(t0)
			appended += before - logStart
			logStart, writeErr = logBytes()
		}
	}
	stop.Store(true)
	<-readerDone
	if writeErr != nil {
		return nil, fmt.Errorf("writer: %w", writeErr)
	}
	logEnd, err := logBytes()
	if err != nil {
		return nil, err
	}
	appended += logEnd - logStart

	before, err := fullRead(wc, in)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Crash and recover: SIGKILL, restart on the same directory, time until
	// /readyz answers 200.
	d.down()
	t0 := time.Now()
	again, err := e.launch(ingestProcs, dir, "recovered", z, ingestArgs(dir)...)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	recovery := time.Since(t0)
	d.servers = []*node{again}
	ac := newClient(again.addr)
	defer ac.close()
	after, err := fullRead(ac, in)
	if err != nil {
		return nil, err
	}
	st, err := ac.stats()
	if err != nil {
		return nil, err
	}
	rss2, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	sortedReads := readTimes.sorted()
	r.Attempted = wc.attempted + rc.attempted + ac.attempted
	r.Failed = wc.failed + rc.failed + ac.failed + regressed
	r.LatenessMsP99["reader"] = rp.latenessP99()
	r.Counts["reads"] = int64(len(readTimes))
	r.set(mEdgesPerS, float64(2*k)*windowRate(done, z.RateWindows), batches)
	r.set(xSnapshot, ms(snapshot), 1)
	r.setPercentile(mBatchP50, batchTimes.sorted(), 50, ms)
	r.setPercentile(mReadP50, sortedReads, 50, us)
	r.setPercentile(xReadP99, sortedReads, 99, us)
	r.set(mReadsPerS, float64(len(readTimes))/readerWall.Seconds(), len(readTimes))
	// The two processes never run together, so the larger peak counts.
	r.set(mPeakRSS, math.Max(rss, rss2), 0)
	r.set(xRecovery, recovery.Seconds(), 1)
	r.set(xLogBytes, float64(appended)/float64(r.Counts["edge_ops"]), 0)

	// Oracle.
	if r.Failed > 0 {
		return r, fmt.Errorf("%d of %d operations failed (%d reads with a regressed epoch)", r.Failed, r.Attempted, regressed)
	}
	if before.Epoch != after.Epoch || st.Epoch != before.Epoch {
		return r, fmt.Errorf("recovered at epoch %d (stats %d), last acked state is epoch %d", after.Epoch, st.Epoch, before.Epoch)
	}
	if err := sameVector("recovered vs last acked state", after.Coreness, before.Coreness); err != nil {
		return r, err
	}
	if st.Edges != int64(z.PreloadEdges) {
		return r, fmt.Errorf("recovered server holds %d edges, want %d", st.Edges, z.PreloadEdges)
	}
	if st.Durability == nil || st.Durability.Recovered != uint64(batches-snapAfter) {
		return r, fmt.Errorf("recovery replayed %+v, want %d records", st.Durability, batches-snapAfter)
	}
	ref, refEpoch, factor, err := reference(in, 1, warm+batches, k)
	if err != nil {
		return r, err
	}
	if refEpoch != before.Epoch {
		return r, fmt.Errorf("server ended at epoch %d, reference at %d", before.Epoch, refEpoch)
	}
	if err := sameVector("server vs in-process reference", before.Coreness, ref); err != nil {
		return r, err
	}
	errMean, err := checkApprox(z.Vertices, in.live(warm+batches, k), before.Coreness, factor, 1)
	if err != nil {
		return r, err
	}
	r.set(mApproxErr, errMean, z.Vertices)

	d.down()
	setupMedian, err := e.repeatSetup(z, []float64{setup.Seconds()}, up)
	if err != nil {
		return r, err
	}
	r.set(mSetup, setupMedian, z.SetupRepeats)
	return r, nil
}
