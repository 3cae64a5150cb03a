package main

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// replicaUp starts the primary, preloads it, then attaches a follower, whose
// bootstrap (a snapshot transfer of the preloaded state) is part of set-up.
func replicaUp(e *env, in *inputs, dir string) (*deployment, time.Duration, error) {
	t0 := time.Now()
	ship, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	primary, err := e.launch(serverProcs, dir, "primary", in.z, "-shards", "2", "-replicate-listen", ship)
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{servers: []*node{primary}}
	c := newClient(primary.addr)
	defer c.close()
	if err := c.preload(in); err != nil {
		return d, 0, err
	}
	// launch returns once /readyz answers 200, which a replica does only
	// after its first bootstrap.
	follower, err := e.launch(serverProcs, dir, "follower", in.z, "-shards", "2", "-replicate-from", ship)
	if err != nil {
		return d, 0, err
	}
	d.servers = append(d.servers, follower)
	return d, time.Since(t0), nil
}

// ack is one acknowledged update batch: when its reply arrived and the
// epoch the primary reported right after.
type ack struct {
	submit, at time.Time
	epoch      uint64
}

// awaitEpoch polls GET /stats until the server has applied epoch.
func awaitEpoch(c *client, epoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.stats()
		if err != nil {
			return err
		}
		if st.Epoch >= epoch {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("still at epoch %d after %v, waiting for %d", st.Epoch, timeout, epoch)
		}
		time.Sleep(time.Millisecond)
	}
}

// runReplica is svc_replica_reads: a paced writer on the primary, a paced
// bulk reader on the follower whose every read carries the newest epoch the
// writer has had acknowledged as its floor.
func runReplica(e *env, in *inputs, seed int64) (r *result, err error) {
	z := in.z
	r = newResult(wReplica, seed)
	batches, k := z.count(z.ReplicaBatchesPerS), z.ReplicaBatchEdges
	reads := z.count(z.ReplicaReadsPerS)
	r.Counts["batches"] = int64(batches)
	r.Counts["edge_ops"] = int64(batches) * int64(2*k)
	r.Counts["reads"] = int64(reads)

	up := func(dir string) (*deployment, time.Duration, error) { return replicaUp(e, in, dir) }
	d, dir, setup, err := e.setUp(wReplica, up)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer d.release(&err)
	primary, follower := d.servers[0], d.servers[1]
	wc, rc := newClient(primary.addr), newClient(follower.addr)
	defer wc.close()
	defer rc.close()

	// Reader: open loop on the follower.
	type served struct {
		at    time.Time
		epoch uint64
	}
	var (
		acked      atomic.Uint64 // newest epoch acknowledged to the writer
		readerDone = make(chan struct{})
		readTimes  = make(samples, 0, reads)
		seen       = make([]served, 0, reads)
		behind     int64 // reads served below their floor
		readerWall time.Duration
	)
	start := time.Now()
	rp := newPacer(start, z.ReplicaReadsPerS)
	go func() {
		defer close(readerDone)
		for i := 0; i < reads; i++ {
			due := rp.wait(i)
			floor := acked.Load()
			rep, err := rc.bulk(in.readSets[i%readSetCount], -1, int64(floor))
			if err != nil {
				continue
			}
			now := time.Now()
			readTimes = append(readTimes, now.Sub(due))
			seen = append(seen, served{at: now, epoch: rep.Epoch})
			if rep.Epoch < floor {
				behind++
			}
		}
		readerWall = time.Since(start)
	}()

	// Writer: open loop on the primary.
	wp := newPacer(start, z.ReplicaBatchesPerS)
	batchTimes := make(samples, 0, batches)
	acks := make([]ack, 0, batches)
	var writeErr error
	for i := 0; i < batches; i++ {
		ins, del := in.batch(i, k)
		due := wp.wait(i)
		if writeErr = wc.applyBatch(ins, del); writeErr != nil {
			break
		}
		at := time.Now()
		batchTimes = append(batchTimes, at.Sub(due))
		// The batch reply carries no epoch; the writer is the only one, so
		// the epoch /stats reports next is the one its batch committed.
		st, err := wc.stats()
		if err != nil {
			writeErr = err
			break
		}
		acked.Store(st.Epoch)
		acks = append(acks, ack{submit: due, at: at, epoch: st.Epoch})
	}
	writerWall := time.Since(start)
	<-readerDone
	if writeErr != nil {
		return nil, fmt.Errorf("writer: %w", writeErr)
	}

	// Replication delay as a reader sees it: from the primary's ack of epoch
	// E to the completion of the first follower read reporting >= E.
	var visible samples
	for _, a := range acks {
		i := sort.Search(len(seen), func(i int) bool { return seen[i].epoch >= a.epoch })
		for i < len(seen) && seen[i].at.Before(a.at) {
			i++
		}
		if i < len(seen) {
			visible = append(visible, seen[i].at.Sub(a.at))
		}
	}

	last := acks[len(acks)-1].epoch
	if err := awaitEpoch(rc, last, readyTimeout); err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	onPrimary, err := fullRead(wc, in)
	if err != nil {
		return nil, err
	}
	onFollower, err := fullRead(rc, in)
	if err != nil {
		return nil, err
	}
	pst, err := wc.stats()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	sortedReads := readTimes.sorted()
	r.Attempted = wc.attempted + rc.attempted
	r.Failed = wc.failed + rc.failed + behind
	r.LatenessMsP99["writer"] = wp.latenessP99()
	r.LatenessMsP99["reader"] = rp.latenessP99()
	r.set(mEdgesPerS, float64(r.Counts["edge_ops"])/writerWall.Seconds(), batches)
	r.setPercentile(mBatchP50, batchTimes.sorted(), 50, ms)
	r.setPercentile(mReadP50, sortedReads, 50, us)
	r.setPercentile(xReadP99, sortedReads, 99, us)
	r.set(mReadsPerS, float64(len(readTimes))/readerWall.Seconds(), len(readTimes))
	r.setPercentile(xReplVisible, visible.sorted(), 50, ms)
	r.set(mPeakRSS, rss, 0)

	// Oracle.
	if r.Failed > 0 {
		return r, fmt.Errorf("%d of %d operations failed (%d reads below their epoch floor)", r.Failed, r.Attempted, behind)
	}
	if shed := pst.Overload.LoadShed + pst.Overload.RateLimited + pst.Overload.Timeouts; shed != 0 {
		return r, fmt.Errorf("primary shed %d requests", shed)
	}
	if onPrimary.Epoch != last || onFollower.Epoch != last {
		return r, fmt.Errorf("final reads at epochs %d (primary) and %d (follower), last acked is %d", onPrimary.Epoch, onFollower.Epoch, last)
	}
	if err := sameVector("follower vs primary", onFollower.Coreness, onPrimary.Coreness); err != nil {
		return r, err
	}
	ref, refEpoch, factor, err := reference(in, 2, batches, k)
	if err != nil {
		return r, err
	}
	if refEpoch != last {
		return r, fmt.Errorf("servers ended at epoch %d, reference at %d", last, refEpoch)
	}
	if err := sameVector("primary vs in-process reference", onPrimary.Coreness, ref); err != nil {
		return r, err
	}
	errMean, err := checkApprox(z.Vertices, in.live(batches, k), onPrimary.Coreness, factor, 2)
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
