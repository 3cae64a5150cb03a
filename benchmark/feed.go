package main

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

func feedUp(e *env, in *inputs, dir string) (*deployment, time.Duration, error) {
	t0 := time.Now()
	s, err := e.launch(serverProcs, dir, "server", in.z, "-shards", "2", "-retain", strconv.Itoa(in.z.FeedRetain))
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{servers: []*node{s}}
	c := newClient(s.addr)
	defer c.close()
	if err := c.preload(in); err != nil {
		return d, 0, err
	}
	return d, time.Since(t0), nil
}

// feedCheck is the pair of pinned reads taken around one sampled epoch.
type feedCheck struct {
	epoch         uint64
	before, after []float64 // the strided vertices at epoch-1 and at epoch
}

// crosses reports whether a transition falls on opposite sides of k, the
// meaning of /subscribe?cross_k=k.
func crosses(old, new, k float64) bool { return (old < k) != (new < k) }

// runFeed is svc_history_feed: a paced writer that follows each ack with a
// bulk read FeedDepth epochs back, and one SSE subscriber.
func runFeed(e *env, in *inputs, seed int64) (r *result, err error) {
	z := in.z
	r = newResult(wFeed, seed)
	batches, k := z.count(z.FeedBatchesPerS), z.FeedBatchEdges
	r.Counts["batches"] = int64(batches)
	r.Counts["edge_ops"] = int64(batches) * int64(2*k)

	up := func(dir string) (*deployment, time.Duration, error) { return feedUp(e, in, dir) }
	d, dir, setup, err := e.setUp(wFeed, up)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer d.release(&err)
	srv := d.servers[0]
	wc := newClient(srv.addr)
	defer wc.close()

	crossK := float64(z.FeedCrossK)
	sub, err := subscribe(srv.addr, "cross_k="+strconv.Itoa(z.FeedCrossK))
	if err != nil {
		return nil, err
	}
	defer sub.close()

	// The vertices the SSE check reads, and which batches it samples.
	var strided []uint32
	for v := 0; v < z.Vertices; v += z.FeedCheckStride {
		strided = append(strided, uint32(v))
	}
	every := max(batches/z.FeedChecks, 1)

	st, err := wc.stats()
	if err != nil {
		return nil, err
	}
	prev := st.Epoch

	// Writer: open loop.
	start := time.Now()
	wp := newPacer(start, z.FeedBatchesPerS)
	batchTimes := make(samples, 0, batches)
	retired := make(samples, 0, batches)
	acks := make([]ack, 0, batches)
	var checks []feedCheck
	var mismatched int64 // retired reads that did not come back at the asked epoch
	var writeErr error
	for i := 0; i < batches; i++ {
		ins, del := in.batch(i, k)
		due := wp.wait(i)
		if writeErr = wc.applyBatch(ins, del); writeErr != nil {
			break
		}
		at := time.Now()
		batchTimes = append(batchTimes, at.Sub(due))
		st, err := wc.stats()
		if err != nil {
			writeErr = err
			break
		}
		acks = append(acks, ack{submit: due, at: at, epoch: st.Epoch})

		want := st.Epoch - uint64(z.FeedDepth)
		t0 := time.Now()
		rep, err := wc.bulk(in.readSets[i%readSetCount], int64(want), -1)
		if err != nil {
			writeErr = err
			break
		}
		retired = append(retired, time.Since(t0))
		if rep.Epoch != want {
			mismatched++
		}

		if i%every == every-1 && len(checks) < z.FeedChecks {
			before, err := wc.bulk(strided, int64(st.Epoch)-1, -1)
			if err != nil {
				writeErr = err
				break
			}
			after, err := wc.bulk(strided, int64(st.Epoch), -1)
			if err != nil {
				writeErr = err
				break
			}
			checks = append(checks, feedCheck{epoch: st.Epoch, before: before.Coreness, after: after.Coreness})
		}
	}
	writerWall := time.Since(start)
	if writeErr != nil {
		return nil, fmt.Errorf("writer: %w", writeErr)
	}
	last := acks[len(acks)-1].epoch

	// Let the subscriber drain: the feed is asynchronous to the ack.
	time.Sleep(100 * time.Millisecond)
	sub.close()
	final, err := fullRead(wc, in)
	if err != nil {
		return nil, err
	}
	fst, err := wc.stats()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Feed delivery: batch submit to arrival of the last SSE message whose
	// epoch belongs to the batch (a 2-shard batch commits up to four epochs;
	// an epoch with no transition across k sends nothing).
	byEpoch := make(map[uint64]feedMessage, len(sub.messages))
	for _, m := range sub.messages {
		byEpoch[m.Epoch] = m
	}
	var delivery samples
	for _, a := range acks {
		for ep := a.epoch; ep > prev; ep-- {
			if m, ok := byEpoch[ep]; ok {
				delivery = append(delivery, m.at.Sub(a.submit))
				break
			}
		}
		prev = a.epoch
	}

	sortedRetired := retired.sorted()
	r.Attempted = wc.attempted
	r.Failed = wc.failed + mismatched
	r.LatenessMsP99["writer"] = wp.latenessP99()
	r.Counts["reads"] = int64(len(retired))
	r.Counts["feed_messages"] = int64(len(sub.messages))
	r.set(mEdgesPerS, float64(r.Counts["edge_ops"])/writerWall.Seconds(), batches)
	r.setPercentile(mBatchP50, batchTimes.sorted(), 50, ms)
	// This workload's read is the retired one.
	r.setPercentile(mReadP50, sortedRetired, 50, us)
	r.setPercentile(xRetiredRead, sortedRetired, 50, us)
	r.setPercentile(xReadP99, sortedRetired, 99, us)
	r.set(mReadsPerS, float64(len(retired))/writerWall.Seconds(), len(retired))
	r.setPercentile(xFeedDelivery, delivery.sorted(), 50, ms)
	r.set(mPeakRSS, rss, 0)

	// Oracle.
	if r.Failed > 0 {
		return r, fmt.Errorf("%d of %d operations failed (%d retired reads at the wrong epoch)", r.Failed, r.Attempted, mismatched)
	}
	if sub.err != nil {
		return r, fmt.Errorf("subscriber: %w", sub.err)
	}
	if sub.gaps != 0 || fst.Feed.Drops != 0 || fst.Feed.Gaps != 0 {
		return r, fmt.Errorf("feed lost events: %d gap messages, server drops=%d gaps=%d", sub.gaps, fst.Feed.Drops, fst.Feed.Gaps)
	}
	if final.Epoch != last {
		return r, fmt.Errorf("final read at epoch %d, last acked is %d", final.Epoch, last)
	}
	for _, c := range checks {
		if err := c.verify(strided, z.FeedCheckStride, crossK, byEpoch[c.epoch]); err != nil {
			return r, err
		}
	}
	r.Counts["feed_checks"] = int64(len(checks))
	ref, refEpoch, factor, err := reference(in, 2, batches, k)
	if err != nil {
		return r, err
	}
	if refEpoch != last {
		return r, fmt.Errorf("server ended at epoch %d, reference at %d", last, refEpoch)
	}
	if err := sameVector("server vs in-process reference", final.Coreness, ref); err != nil {
		return r, err
	}
	errMean, err := checkApprox(z.Vertices, in.live(batches, k), final.Coreness, factor, 2)
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

// verify checks that the SSE message of one epoch (the zero message when
// none was sent) holds exactly the transitions across k that the pinned
// reads at epoch-1 and epoch show, on the strided vertices.
func (c feedCheck) verify(strided []uint32, stride int, k float64, m feedMessage) error {
	want := map[uint32]feedEvent{}
	for i, v := range strided {
		if old, new := c.before[i], c.after[i]; old != new && crosses(old, new, k) {
			want[v] = feedEvent{Vertex: v, OldCore: old, NewCore: new}
		}
	}
	got := 0
	for _, ev := range m.Events {
		if int(ev.Vertex)%stride != 0 {
			continue
		}
		got++
		if w, ok := want[ev.Vertex]; !ok || w != ev {
			return fmt.Errorf("epoch %d: SSE event %+v, pinned reads say %+v (present=%v)", c.epoch, ev, w, ok)
		}
	}
	if got != len(want) {
		return fmt.Errorf("epoch %d: SSE carried %d of the %d transitions across %v the pinned reads show", c.epoch, got, len(want), k)
	}
	return nil
}
