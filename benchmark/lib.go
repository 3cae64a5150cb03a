package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"kcore"
)

// readWindow is the width of the time bins the closed-loop reader counts its
// reads in; reads_per_s is the median over the full bins.
const readWindow = 250 * time.Millisecond

// libSetup builds the library workload's Decomposition, preloads it and
// applies the warm-up batches.
func libSetup(in *inputs) (*kcore.Decomposition, time.Duration, error) {
	t0 := time.Now()
	d, err := kcore.New(in.z.Vertices, kcore.WithWorkers(1), kcore.WithRetainedEpochs(in.z.LibRetain))
	if err != nil {
		return nil, 0, err
	}
	for _, chunk := range in.preload() {
		if got := d.InsertEdges(toPublic(chunk)); got != len(chunk) {
			return nil, 0, fmt.Errorf("preload inserted %d of %d edges", got, len(chunk))
		}
	}
	k := in.z.LibBatchEdges
	for i := 0; i < in.z.warmup(in.z.count(in.z.LibBatchesPerS)); i++ {
		ins, del := in.batch(i, k)
		if gi, gd := d.ApplyBatch(toPublic(ins), toPublic(del)); gi != k || gd != k {
			return nil, 0, fmt.Errorf("warm-up batch %d applied %d+%d of %d+%d edges", i, gi, gd, k, k)
		}
	}
	return d, time.Since(t0), nil
}

// runLib is lib_async_reads, the paper's own experiment: one goroutine
// applies update batches back to back while another reads back to back, both
// in this process. No HTTP, no WAL, no replication, no subscriber.
func runLib(in *inputs, seed int64) (*result, error) {
	z := in.z
	r := newResult(wLib, seed)
	batches, k := z.count(z.LibBatchesPerS), z.LibBatchEdges
	warm := z.warmup(batches)
	r.Counts["batches"] = int64(batches)
	r.Counts["warmup_batches"] = int64(warm)
	r.Counts["edge_ops"] = int64(batches) * int64(2*k)

	d, setup, err := libSetup(in)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	setups := []float64{setup.Seconds()}

	// Reader: closed loop, every call timed.
	var (
		stop       atomic.Bool
		readerDone = make(chan struct{})
		hist       = new(nsHist)
		regressed  int64 // reads whose epoch went backwards
		perWindow  []int // reads started in each readWindow since start
	)
	start := time.Now()
	go func() {
		defer close(readerDone)
		view := d.View()
		out := make([]float64, z.ReadIDs)
		var last uint64
		for i := 0; !stop.Load(); i++ {
			ids := in.readSets[i%readSetCount]
			t0 := time.Now()
			epoch := view.CorenessManyInto(ids, out)
			hist.add(time.Since(t0))
			if epoch < last {
				regressed++
			}
			last = epoch
			w := int(t0.Sub(start) / readWindow)
			for len(perWindow) <= w {
				perWindow = append(perWindow, 0)
			}
			perWindow[w]++
		}
	}()

	// Writer: closed loop.
	batchTimes := make(samples, 0, batches)
	done := make([]time.Duration, 0, batches) // completion times since start
	var short int64                           // batches that did not apply every edge
	for i := 0; i < batches; i++ {
		ins, del := in.batch(warm+i, k)
		pi, pd := toPublic(ins), toPublic(del)
		t0 := time.Now()
		gi, gd := d.ApplyBatch(pi, pd)
		now := time.Now()
		batchTimes = append(batchTimes, now.Sub(t0))
		done = append(done, now.Sub(start))
		if gi != k || gd != k {
			short++
		}
	}
	stop.Store(true)
	<-readerDone

	view := d.View()
	final := view.CorenessMany(in.allVertices())
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	r.Attempted = int64(batches) + int64(hist.n) + 1
	r.Failed = short + regressed
	r.set(mEdgesPerS, float64(2*k)*windowRate(done, z.RateWindows), batches)
	r.setPercentile(mBatchP50, batchTimes.sorted(), 50, ms)
	if d, ok := hist.percentile(50); ok {
		r.set(mReadP50, us(d), hist.n)
	}
	if d, ok := hist.percentile(99); ok {
		r.set(xReadP99, us(d), hist.n)
	}
	// The last bin is cut short by the writer finishing.
	if len(perWindow) > 1 {
		perWindow = perWindow[:len(perWindow)-1]
	}
	full := make([]float64, 0, len(perWindow))
	for _, n := range perWindow {
		full = append(full, float64(n)/readWindow.Seconds())
	}
	r.set(mReadsPerS, median(full), hist.n)
	r.set(mPeakRSS, rss, 0)
	r.Counts["reads"] = int64(hist.n)

	// Oracle. The library is its own reference here, so what is checked is
	// the state it ended in and what its reads reported on the way.
	if r.Failed > 0 {
		return r, fmt.Errorf("%d short batches, %d reads with a regressed epoch", short, regressed)
	}
	if want := uint64(len(in.preload()) + 2*(warm+batches)); view.Epoch() != want {
		return r, fmt.Errorf("final epoch %d, want %d", view.Epoch(), want)
	}
	if d.NumEdges() != int64(z.PreloadEdges) {
		return r, fmt.Errorf("%d live edges, want %d", d.NumEdges(), z.PreloadEdges)
	}
	if err := d.Check(); err != nil {
		return r, fmt.Errorf("invariants: %w", err)
	}
	errMean, err := checkApprox(z.Vertices, in.live(warm+batches, k), final, d.ApproxFactor(), 1)
	if err != nil {
		return r, err
	}
	r.set(mApproxErr, errMean, z.Vertices)

	// Set-up again, after the measured phase so that the extra instances do
	// not count towards its peak RSS.
	for len(setups) < z.SetupRepeats {
		extra, took, err := libSetup(in)
		if err != nil {
			return r, err
		}
		extra.Close()
		setups = append(setups, took.Seconds())
	}
	r.set(mSetup, median(setups), len(setups))
	return r, nil
}
