// Command kcore-server runs the HTTP k-core service: linearizable coreness
// reads concurrent with batched edge updates, over the network.
//
// Usage:
//
//	kcore-server -n 1000000 -shards 4 -addr :8080 [-load graph.txt]
//	kcore-server -n 1000000 -wal /var/lib/kcore/wal -snapshot-every 1000
//
//	curl 'localhost:8080/coreness?v=42'
//	curl 'localhost:8080/top?k=10'
//	curl 'localhost:8080/stats'
//	curl --data-binary @batch.txt 'localhost:8080/edges/insert'
//	curl --data-binary @stale.txt 'localhost:8080/edges/delete'
//
// With -wal, applied batches are write-ahead logged and the server recovers
// its pre-crash state from the directory on restart (newest valid snapshot
// plus log tail). Note that -load re-applies (and re-logs) its file on every
// start; use it to seed an empty WAL directory, not together with recovery.
//
// Overload protection: -rate-limit/-rate-burst cap each client's request
// rate (429 past the bucket), -max-inflight sheds load on the heavy
// endpoints (503 once that many requests are in flight), and
// -request-timeout bounds every request by a deadline. /healthz is
// liveness; /readyz turns 503 while the WAL is degraded (durability lost,
// reads and updates still served — see -reattach-every).
//
// Replication: -replicate-listen serves the batch-log shipping stream on a
// second listener (the primary role); -replicate-from points a read-only
// replica at that listener. A replica serves the full read surface from
// byte-identical state, answers every write with 403 "read_only", and
// honors ?min_epoch= read floors, waiting up to -min-epoch-wait before
// shedding with 412. The primary retains the newest -replicate-retain
// committed batches so a briefly disconnected replica resumes from its
// applied vector instead of re-transferring the snapshot:
//
//	kcore-server -n 1000000 -addr :8080 -replicate-listen :7070
//	kcore-server -n 1000000 -addr :8081 -replicate-from localhost:7070
//
// Change feed: GET /subscribe streams per-epoch coreness transitions over
// SSE (filters: ?vertices=, ?cross_k=, ?min_delta=). Slow subscribers get
// gap markers instead of stalling commits; -max-subscribers and
// -event-buffer bound the fan-out.
//
//	curl -N 'localhost:8080/subscribe?cross_k=3'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kcore"
	"kcore/internal/faultfs"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/server"
	"kcore/internal/wal"
)

func main() {
	n := flag.Int("n", 1_000_000, "number of vertices")
	addr := flag.String("addr", ":8080", "listen address")
	load := flag.String("load", "", "optional edge-list file to load at startup")
	delta := flag.Float64("delta", 0.2, "approximation parameter delta")
	lambda := flag.Float64("lambda", 9, "approximation parameter lambda")
	batch := flag.Int("batch", 100000, "startup-load batch size")
	shards := flag.Int("shards", 1, "number of engine shards (each update batch is split across shards that apply their parts in parallel)")
	maxBatch := flag.Int("maxbatch", server.DefaultMaxBatchEdges, "max edges accepted per /edges/batch request")
	retain := flag.Int("retain", server.DefaultRetainedEpochs,
		"retired epochs kept readable for ?epoch= reads (0 disables)")
	walDir := flag.String("wal", "", "write-ahead log directory (empty disables durability)")
	snapEvery := flag.Uint64("snapshot-every", 0,
		"take an automatic snapshot after this many logged batches (0 = never)")
	fsync := flag.String("fsync", "none", "WAL fsync policy: none, interval or always")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond,
		"minimum spacing between fsyncs under -fsync interval")
	reattachEvery := flag.Duration("reattach-every", 5*time.Second,
		"background re-attach period while the WAL is degraded (negative disables)")
	rateLimit := flag.Float64("rate-limit", 0,
		"per-client requests per second (0 disables rate limiting)")
	rateBurst := flag.Int("rate-burst", 20, "per-client burst size under -rate-limit")
	maxInFlight := flag.Int("max-inflight", 0,
		"max concurrent update/bulk requests before shedding with 503 (0 disables)")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second,
		"per-request deadline (0 disables)")
	replListen := flag.String("replicate-listen", "",
		"serve the replication stream for followers on this address (primary role)")
	replFrom := flag.String("replicate-from", "",
		"replicate from the primary's -replicate-listen address (read-only replica role)")
	replRetain := flag.Int("replicate-retain", 0,
		"committed batches the primary retains for follower resume; a follower disconnected "+
			"for fewer batches reconnects without a snapshot transfer (0 = default 1024, negative disables)")
	minEpochWait := flag.Duration("min-epoch-wait", server.DefaultMinEpochWait,
		"how long a ?min_epoch= read may wait for the epoch floor before shedding with 412")
	maxSubs := flag.Int("max-subscribers", 0,
		"max concurrent /subscribe change-feed streams (0 = unlimited)")
	feedBuffer := flag.Int("event-buffer", 0,
		"per-subscriber change-feed buffer in epochs; slower subscribers get gap markers (0 = default 64)")
	feedHeartbeat := flag.Duration("feed-heartbeat", server.DefaultFeedHeartbeat,
		"idle /subscribe stream heartbeat period")
	faultFsync := flag.Int("fault-fsync-fail", 0,
		"TESTING ONLY: inject a failure into the next N WAL fsyncs (-1 = forever)")
	flag.Parse()

	opts := []server.Option{
		server.WithShards(*shards), server.WithMaxBatchEdges(*maxBatch),
		server.WithRetainedEpochs(*retain),
		server.WithRequestTimeout(*reqTimeout),
		server.WithMinEpochWait(*minEpochWait),
		server.WithMaxSubscribers(*maxSubs),
		server.WithEventBuffer(*feedBuffer),
		server.WithFeedHeartbeat(*feedHeartbeat),
	}
	if *replListen != "" {
		opts = append(opts, server.WithReplicationListen(*replListen))
		if *replRetain != 0 {
			opts = append(opts, server.WithReplicationOptions(kcore.ReplicationOptions{RetainBatches: *replRetain}))
		}
	}
	if *replFrom != "" {
		opts = append(opts, server.WithReplicationSource(*replFrom))
	}
	if *rateLimit > 0 {
		opts = append(opts, server.WithRateLimit(*rateLimit, *rateBurst))
	}
	if *maxInFlight > 0 {
		opts = append(opts, server.WithMaxInFlight(*maxInFlight))
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("kcore-server: %v", err)
		}
		wo := kcore.WALOptions{
			Sync:          policy,
			SyncEvery:     *fsyncEvery,
			SnapshotEvery: *snapEvery,
			ReattachEvery: *reattachEvery,
		}
		if *faultFsync != 0 {
			// A finite schedule exhausts itself after N failures, so the
			// background re-attach loop then succeeds: the smoke test sees
			// degrade → keep serving → recover, all in one process.
			inj := faultfs.New(nil)
			inj.FailSyncs(0, *faultFsync)
			wo.FS = inj
			log.Printf("kcore-server: FAULT INJECTION armed: failing %d fsync(s)", *faultFsync)
		}
		opts = append(opts, server.WithWAL(*walDir, wo))
	}
	if *load != "" && *replFrom != "" {
		log.Fatal("kcore-server: -load on a replica would fork it from the primary; load on the primary instead")
	}
	srv, err := server.New(*n, lds.Params{Delta: *delta, Lambda: *lambda}, opts...)
	if err != nil {
		log.Fatalf("kcore-server: %v", err)
	}
	if *load != "" {
		if err := loadFile(srv, *load, *batch); err != nil {
			log.Fatalf("kcore-server: %v", err)
		}
	}
	switch {
	case *replListen != "":
		log.Printf("kcore-server: replication primary, shipping on %s", srv.ReplicationAddr())
	case *replFrom != "":
		log.Printf("kcore-server: read-only replica of %s (synced)", *replFrom)
	}
	log.Printf("kcore-server: %d vertices, %d shard(s), listening on %s", *n, *shards, *addr)

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-done
		log.Printf("kcore-server: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // drain in-flight updates before closing the log
		if err := srv.Close(); err != nil {
			log.Printf("kcore-server: closing WAL: %v", err)
		}
	}()
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

func loadFile(srv *server.Server, path string, batch int) error {
	if batch < 1 {
		return fmt.Errorf("-batch must be at least 1, got %d", batch)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	edges, _, err := graph.ReadEdgeList(f)
	if err != nil {
		return err
	}
	lo := 0
	for _, b := range gen.Batches(edges, batch) {
		n := srv.InsertBatch(b)
		log.Printf("loaded batch %d..%d (%d applied)", lo, lo+len(b), n)
		lo += len(b)
	}
	fmt.Println("load complete")
	return nil
}
