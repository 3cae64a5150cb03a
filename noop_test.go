package kcore

import (
	"fmt"
	"testing"
)

// TestNoOpCallsCommitNothing: an epoch is a change. At every shard count, a
// call whose sub-batches change no edge commits no epoch, so it writes no
// WAL record, ships no record to the follower, publishes no feed message
// and ages no retained epoch out. A call that mixes an effective list with
// a no-op list commits only the sub-batches that changed a shard's graph.
func TestNoOpCallsCommitNothing(t *testing.T) {
	const n, retain = 60, 4
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			primary, err := New(n, WithShards(p), WithRetainedEpochs(retain),
				WithWAL(t.TempDir(), WALOptions{}), WithReplicationListen("127.0.0.1:0"), fastReplOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			follower, err := New(n, WithShards(p), WithReplicationSource(primary.ReplicationAddr()), fastReplOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			sub, err := primary.Subscribe(EventFilter{})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			// More committed epochs than are retained, so any commit would
			// move OldestReadableEpoch.
			for i := uint32(0); i < 2*retain; i++ {
				primary.InsertEdges([]Edge{{U: i, V: i + 1}})
			}
			type counts struct{ epoch, logged, applied, feed, oldest uint64 }
			// settle waits for the follower to apply everything the primary
			// logged, drains the feed and returns the counters.
			settle := func() counts {
				waitForEpoch(t, follower, primary.Epoch())
				for len(sub.C()) > 0 {
					<-sub.C()
				}
				dur, _ := primary.DurabilityStats()
				rep, _ := follower.ReplicationStats()
				if rep.Follower.RecordsApplied != dur.LoggedBatches {
					t.Fatalf("follower applied %d records, primary logged %d", rep.Follower.RecordsApplied, dur.LoggedBatches)
				}
				return counts{primary.Epoch(), dur.LoggedBatches, rep.Follower.RecordsApplied,
					primary.FeedStats().Epochs, primary.OldestReadableEpoch()}
			}
			before := settle()

			invalid := []Edge{{U: 5, V: 5}, {U: 7, V: n}, {U: n + 1, V: 3}}
			noOps := []struct {
				name     string
				ins, del []Edge
			}{
				{"self-loops and out-of-range edges", invalid, invalid},
				{"re-inserting a present edge", []Edge{{U: 1, V: 0}}, nil},
				{"deleting an absent edge", nil, []Edge{{U: 40, V: 50}}},
			}
			for _, op := range noOps {
				if ins, del := primary.ApplyBatch(op.ins, op.del); ins != 0 || del != 0 {
					t.Fatalf("%s applied (%d, %d)", op.name, ins, del)
				}
				if len(sub.C()) != 0 {
					t.Fatalf("%s published a feed message", op.name)
				}
				if got := settle(); got != before {
					t.Fatalf("%s moved the counters: %+v, before %+v", op.name, got, before)
				}
			}

			// An effective insertion list with a no-op deletion list: only
			// the shards whose graphs changed commit, one epoch and one
			// record each.
			loads := primary.ShardStats()
			if ins, del := primary.ApplyBatch([]Edge{{U: 20, V: 21}, {U: 30, V: 31}}, []Edge{{U: 40, V: 50}}); ins != 2 || del != 0 {
				t.Fatalf("mixed call applied (%d, %d), want (2, 0)", ins, del)
			}
			var changed uint64
			for si, st := range primary.ShardStats() {
				if st.Inserted != loads[si].Inserted {
					changed++
				}
				if st.Deleted != loads[si].Deleted {
					t.Fatalf("shard %d deleted an edge in a no-op deletion list", si)
				}
			}
			// The feed publishes a commit only if some level moved.
			after := settle()
			want := counts{before.epoch + changed, before.logged + changed, before.applied + changed, after.feed, before.oldest + changed}
			if after != want || after.feed > before.feed+changed {
				t.Fatalf("mixed call changed %d shards, but counters went from %+v to %+v", changed, before, after)
			}
			if err := primary.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
