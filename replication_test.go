package kcore

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fastReplOpts() Option {
	return WithReplicationOptions(ReplicationOptions{
		Heartbeat:     20 * time.Millisecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		StreamTimeout: 2 * time.Second,
		InitialSync:   5 * time.Second,
	})
}

func randomEdgeRounds(n, rounds, perRound int, seed int64) [][]Edge {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Edge, rounds)
	for r := range out {
		var ins []Edge
		for i := 0; i < perRound; i++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if u != v {
				ins = append(ins, Edge{U: u, V: v})
			}
		}
		out[r] = ins
	}
	return out
}

func waitForEpoch(t *testing.T, d *Decomposition, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if d.Epoch() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for epoch %d (at %d)", want, d.Epoch())
}

// expectViewParity asserts that both decompositions serve byte-identical
// coreness values from the same epoch through the public View API.
func expectViewParity(t *testing.T, primary, follower *Decomposition) {
	t.Helper()
	pv, fv := primary.View(), follower.View()
	if pv.Epoch() != fv.Epoch() {
		t.Fatalf("view epochs differ: primary %d, follower %d", pv.Epoch(), fv.Epoch())
	}
	n := primary.NumVertices()
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = uint32(i)
	}
	pk, fk := pv.CorenessMany(vs), fv.CorenessMany(vs)
	for v := range pk {
		if pk[v] != fk[v] {
			t.Fatalf("coreness of vertex %d differs at epoch %d: primary %v, follower %v",
				v, pv.Epoch(), pk[v], fk[v])
		}
	}
}

func TestReplicationPublicAPI(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(map[int]string{1: "single", 3: "sharded"}[shards], func(t *testing.T) {
			const n = 250
			primary, err := New(n, WithShards(shards), WithReplicationListen("127.0.0.1:0"), fastReplOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			rounds := randomEdgeRounds(n, 16, 30, 42)
			for _, ins := range rounds[:8] {
				primary.InsertEdges(ins)
			}

			follower, err := New(n, WithShards(shards),
				WithReplicationSource(primary.ReplicationAddr()), fastReplOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			if !follower.ReadOnly() {
				t.Fatal("follower must report ReadOnly")
			}
			if primary.ReadOnly() {
				t.Fatal("primary must not report ReadOnly")
			}
			if got, want := follower.Epoch(), primary.Epoch(); got != want {
				t.Fatalf("post-bootstrap epoch %d, want %d", got, want)
			}

			// Local writes on the follower must be rejected as no-ops.
			ep := follower.Epoch()
			if got := follower.InsertEdges([]Edge{{U: 0, V: 1}}); got != 0 {
				t.Fatalf("follower InsertEdges applied %d edges", got)
			}
			if ins, del := follower.ApplyBatch(rounds[0], rounds[0]); ins != 0 || del != 0 {
				t.Fatalf("follower ApplyBatch applied %d/%d edges", ins, del)
			}
			if got := follower.RemoveVertex(0); got != 0 {
				t.Fatalf("follower RemoveVertex removed %d edges", got)
			}
			if follower.Epoch() != ep {
				t.Fatal("follower epoch advanced on a rejected local write")
			}

			for _, ins := range rounds[8:] {
				primary.InsertEdges(ins)
			}
			waitForEpoch(t, follower, primary.Epoch())
			expectViewParity(t, primary, follower)

			ps, ok := primary.ReplicationStats()
			if !ok || ps.Role != "primary" || ps.Follower != nil || ps.Feeder.Followers != 1 || ps.Feeder.Bootstraps != 1 {
				t.Fatalf("unexpected primary replication stats: %+v", ps)
			}
			fs, ok := follower.ReplicationStats()
			if !ok || fs.Role != "follower" || fs.Feeder != nil || !fs.Follower.Synced || fs.Follower.Bootstraps != 1 ||
				fs.Follower.Epoch != follower.Epoch() {
				t.Fatalf("unexpected follower replication stats: %+v", fs)
			}
		})
	}
}

// TestReplicationFeedsFromWAL ships a durable primary's records to a
// follower while two updaters commit concurrently: with several shards,
// their hooks encode, append and publish into one WAL-fed tail at once.
func TestReplicationFeedsFromWAL(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 120
			primary, err := New(n, WithShards(shards), WithWAL(t.TempDir(), WALOptions{}),
				WithReplicationListen("127.0.0.1:0"), fastReplOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			rounds := randomEdgeRounds(n, 20, 20, 7)
			for _, ins := range rounds[:5] {
				primary.InsertEdges(ins)
			}

			follower, err := New(n, WithShards(shards),
				WithReplicationSource(primary.ReplicationAddr()), fastReplOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 5 + w; r < len(rounds); r += 2 {
						primary.InsertEdges(rounds[r])
						if r%3 == 0 {
							primary.DeleteEdges(rounds[r-3][:5])
						}
					}
				}(w)
			}
			wg.Wait()
			waitForEpoch(t, follower, primary.Epoch())
			expectViewParity(t, primary, follower)
			if _, ok := follower.DurabilityStats(); ok {
				t.Fatal("a follower must not report a WAL")
			}
			if st, _ := primary.DurabilityStats(); st.LoggedBatches == 0 || st.DroppedBatches != 0 {
				t.Fatalf("primary durability stats %+v: want every batch logged", st)
			}
		})
	}
}

// TestReplicationBounceClientMonotone models a client bouncing between the
// primary and a replica: per-endpoint view epochs are monotone, and the
// follower never runs ahead of the primary.
func TestReplicationBounceClientMonotone(t *testing.T) {
	const n = 150
	primary, err := New(n, WithShards(2), WithReplicationListen("127.0.0.1:0"), fastReplOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.InsertEdges(randomEdgeRounds(n, 1, 40, 1)[0])

	follower, err := New(n, WithShards(2),
		WithReplicationSource(primary.ReplicationAddr()), fastReplOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bounceErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		ends := []*Decomposition{primary, follower}
		last := make([]uint64, len(ends))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := i % len(ends)
			ep := ends[e].View().Epoch()
			if ep < last[e] {
				bounceErr.Store("endpoint epoch went backwards")
				return
			}
			last[e] = ep
			if fe, pe := follower.Epoch(), primary.Epoch(); fe > pe {
				// Safe to compare in this order: the follower only applies
				// what the primary already committed.
				bounceErr.Store("follower ran ahead of the primary")
				return
			}
		}
	}()
	for _, ins := range randomEdgeRounds(n, 12, 30, 2) {
		primary.InsertEdges(ins)
	}
	waitForEpoch(t, follower, primary.Epoch())
	close(stop)
	wg.Wait()
	if msg, ok := bounceErr.Load().(string); ok {
		t.Fatal(msg)
	}
	expectViewParity(t, primary, follower)
}

func TestReplicationOptionValidation(t *testing.T) {
	if _, err := New(10, WithReplicationListen("127.0.0.1:0"), WithReplicationSource("127.0.0.1:1")); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("listen+source must be rejected, got %v", err)
	}
	if _, err := New(10, WithWAL(t.TempDir(), WALOptions{}), WithReplicationSource("127.0.0.1:1")); err == nil ||
		!strings.Contains(err.Error(), "follower") {
		t.Fatalf("WAL on a follower must be rejected, got %v", err)
	}
	if _, err := New(10, WithReplicationListen("256.0.0.1:bad")); err == nil {
		t.Fatal("an unusable listen address must be rejected")
	}
}
