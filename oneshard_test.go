package kcore

import (
	"math/rand"
	"sync"
	"testing"
)

// dupScript is randScript with every insertion and deletion list carrying
// each of its edges twice, half of them once more reversed.
func dupScript(n, batches, perBatch int, seed int64) []scriptOp {
	script := randScript(n, batches, perBatch, seed)
	for i := range script {
		op := &script[i]
		op.ins = append(op.ins, op.ins...)
		for _, e := range op.ins[:perBatch/2] {
			op.ins = append(op.ins, Edge{U: e.V, V: e.U})
		}
		op.del = append(op.del, op.del...)
	}
	return script
}

// subBatches counts the epochs a one-shard ApplyBatch commits, from the
// counts it returned: one per side that changed the graph.
func subBatches(ins, del int) uint64 {
	var n uint64
	if ins > 0 {
		n++
	}
	if del > 0 {
		n++
	}
	return n
}

// TestOneShardDuplicateRoundsRecoverAndReplicate: one-shard rounds are
// logged as submitted, duplicates included, so WAL recovery and a
// follower must replay them with the live path's accounting. Counting the
// duplicates against the pre-round graph would drift the edge counters.
func TestOneShardDuplicateRoundsRecoverAndReplicate(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	primary, err := New(n, WithWAL(dir, WALOptions{}), WithReplicationListen("127.0.0.1:0"), fastReplOpts())
	if err != nil {
		t.Fatal(err)
	}
	follower, err := New(n, WithReplicationSource(primary.ReplicationAddr()), fastReplOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	var batches uint64
	for _, op := range dupScript(n, 10, 40, 3) {
		batches += subBatches(primary.ApplyBatch(op.ins, op.del))
	}
	if primary.Epoch() != batches {
		t.Fatalf("epoch %d; want one per changing sub-batch, %d", primary.Epoch(), batches)
	}
	if err := primary.Check(); err != nil {
		t.Fatal(err)
	}
	want, wantLoad := captureState(primary), primary.ShardStats()[0]

	waitForEpoch(t, follower, primary.Epoch())
	requireSameState(t, captureState(follower), want, "follower")
	if got := follower.ShardStats()[0]; got != wantLoad {
		t.Fatalf("follower load %+v, primary %+v", got, wantLoad)
	}
	if err := follower.Check(); err != nil {
		t.Fatalf("follower: %v", err)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := New(n, WithWAL(dir, WALOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	requireSameState(t, captureState(recovered), want, "recovered")
	if got := recovered.ShardStats()[0]; got != wantLoad {
		t.Fatalf("recovered load %+v, primary %+v", got, wantLoad)
	}
	if err := recovered.Check(); err != nil {
		t.Fatalf("recovered: %v", err)
	}
	if st, _ := recovered.DurabilityStats(); st.RecoveredBatches == 0 {
		t.Fatal("nothing was replayed from the log")
	}
}

// TestOneShardConcurrentUpdatersAndReaders: with one shard, concurrent
// ApplyBatch callers are serialized — every call runs its
// own sub-batches and gets its own exact counts — while readers keep
// seeing committed epochs in order. Run it under -race.
func TestOneShardConcurrentUpdatersAndReaders(t *testing.T) {
	const n, writers, readers = 300, 4, 4
	rounds := 12
	if testing.Short() {
		rounds = 6
	}
	d, err := New(n)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			ids := make([]uint32, 16)
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range ids {
					ids[i] = uint32(rng.Intn(n))
				}
				v := d.View()
				v.CorenessMany(ids)
				d.Coreness(ids[0])
				if v.Epoch() < last {
					t.Errorf("reader %d: epoch went back from %d to %d", r, last, v.Epoch())
					return
				}
				last = v.Epoch()
			}
		}(r)
	}

	var (
		mu                sync.Mutex
		inserted, deleted int64
		batches           uint64
		wwg               sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for _, op := range randScript(n, rounds, 30, int64(100+w)) {
				ins, del := d.ApplyBatch(op.ins, op.del)
				mu.Lock()
				inserted += int64(ins)
				deleted += int64(del)
				batches += subBatches(ins, del)
				mu.Unlock()
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()

	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if got := d.NumEdges(); got != inserted-deleted {
		t.Fatalf("NumEdges %d, callers saw %d inserted and %d deleted", got, inserted, deleted)
	}
	if d.Epoch() != batches {
		t.Fatalf("epoch %d; callers' sub-batches changed the graph %d times", d.Epoch(), batches)
	}
	if st := d.ShardStats()[0]; st.Inserted != inserted || st.Deleted != deleted {
		t.Fatalf("load %+v, callers saw %d inserted and %d deleted", st, inserted, deleted)
	}
}
