package server

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"kcore/internal/wal"
)

// jsonKeyPaths adds the dotted path of every object key in v to out; array
// elements share their array's path with a "[]" suffix.
func jsonKeyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonKeyPaths(child, p, out)
		}
	case []any:
		for _, child := range x {
			jsonKeyPaths(child, prefix+"[]", out)
		}
	}
}

// statsKeys fetches /stats and returns its sorted key paths.
func statsKeys(t *testing.T, url string) []string {
	t.Helper()
	var body any
	if err := json.Unmarshal([]byte(readBody(t, get(t, url+"/stats"))), &body); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	jsonKeyPaths(body, "", keys)
	out := make([]string, 0, len(keys))
	for k := range keys {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// metricFamilies fetches /metrics and returns its "name type" pairs, one
// per "# TYPE" line, sorted.
func metricFamilies(t *testing.T, url string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(readBody(t, get(t, url+"/metrics")), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, rest)
		}
	}
	slices.Sort(out)
	return out
}

// The /stats key paths and /metrics families every server shape exposes.
// Clients (the benchmark harness, the smoke scripts, dashboards) parse both,
// so a change to either list is a wire-format change.
var (
	goldenStatsCommon = []string{
		"batches", "edges", "edges_deleted", "edges_inserted", "epoch",
		"feed", "feed.deliveries", "feed.drops", "feed.epochs", "feed.events", "feed.gaps", "feed.subscribers",
		"oldest_epoch",
		"overload", "overload.load_shed", "overload.panics", "overload.rate_limited", "overload.timeouts",
		"reads_served", "retained_epochs",
		"shard_load", "shard_load[].batches", "shard_load[].edges_deleted", "shard_load[].edges_inserted",
		"shard_load[].local_edges", "shard_load[].owned_vertices", "shard_load[].primary_edges", "shard_load[].shard",
		"shards", "vertices",
	}
	goldenStatsDurability = []string{
		"durability", "durability.degraded", "durability.dir", "durability.last_fsync_unix_nano",
		"durability.last_snapshot_epoch", "durability.last_snapshot_unix_nano", "durability.log_bytes",
		"durability.logged_batches", "durability.recovered_batches", "durability.segments",
		"durability.snapshots", "durability.sync",
	}
	goldenStatsPrimary = []string{
		"replication", "replication.feeder", "replication.feeder.bootstraps", "replication.feeder.bytes_shipped",
		"replication.feeder.followers", "replication.feeder.overruns", "replication.feeder.records_shipped",
		"replication.feeder.resume_rejects", "replication.feeder.resumes", "replication.feeder.total_connects",
		"replication.listen_addr", "replication.role",
	}
	goldenStatsReplica = []string{
		"replication", "replication.follower", "replication.follower.apply_rounds",
		"replication.follower.bootstraps", "replication.follower.bytes_applied",
		"replication.follower.bytes_received", "replication.follower.connected", "replication.follower.epoch",
		"replication.follower.errors", "replication.follower.lag_bytes", "replication.follower.lag_epochs",
		"replication.follower.last_heartbeat_unix_nano", "replication.follower.last_record_unix_nano",
		"replication.follower.primary", "replication.follower.primary_epoch",
		"replication.follower.reconnects", "replication.follower.records_applied",
		"replication.follower.resumes", "replication.follower.synced", "replication.role",
	}

	goldenMetricsCommon = []string{
		"kcore_edges gauge", "kcore_epoch gauge",
		"kcore_feed_deliveries_total gauge", "kcore_feed_drops_total gauge", "kcore_feed_epochs_total gauge",
		"kcore_feed_events_total gauge", "kcore_feed_gaps_total gauge", "kcore_feed_subscribers gauge",
		"kcore_http_request_duration_seconds histogram", "kcore_http_requests_total counter",
		"kcore_shards gauge", "kcore_vertices gauge",
	}
	goldenMetricsDurability = []string{"kcore_wal_degraded gauge", "kcore_wal_log_bytes gauge"}
	goldenMetricsPrimary    = []string{
		"kcore_replication_bytes_shipped_total gauge", "kcore_replication_followers gauge",
		"kcore_replication_overruns_total gauge", "kcore_replication_records_shipped_total gauge",
		"kcore_replication_resume_rejects_total gauge", "kcore_replication_resumes_total gauge",
	}
	goldenMetricsReplica = []string{
		"kcore_replication_bootstraps_total gauge", "kcore_replication_bytes_received_total gauge",
		"kcore_replication_connected gauge", "kcore_replication_errors_total gauge", "kcore_replication_lag_bytes gauge",
		"kcore_replication_lag_epochs gauge", "kcore_replication_records_applied_total gauge",
		"kcore_replication_resumes_total gauge",
	}
)

// sorted concatenates lists into one sorted list.
func sorted(lists ...[]string) []string {
	out := slices.Concat(lists...)
	slices.Sort(out)
	return out
}

// TestStatsAndMetricsGolden pins the /stats JSON key paths (including
// replication.role's value) and the /metrics family names of the four
// server shapes: plain, durable, replication primary and replica. The
// servers are healthy, so omitempty error and degradation fields stay out.
func TestStatsAndMetricsGolden(t *testing.T) {
	_, plain := newTestService(t)
	_, durable := newTestService(t, WithWAL(t.TempDir(), wal.Options{}))
	_, _, primary, replica := newReplicatedPair(t, 100, 2)
	for _, ts := range []*httptest.Server{plain, durable, primary} {
		post(t, ts.URL+"/edges/insert", triangleBody())
	}
	// Wait for the replica to apply the batch and hear a heartbeat, so
	// that its omitempty timestamps are set.
	deadline := time.Now().Add(10 * time.Second)
	for {
		want := decode[map[string]any](t, get(t, primary.URL+"/stats"))["epoch"]
		st := decode[map[string]any](t, get(t, replica.URL+"/stats"))
		fol, _ := st["replication"].(map[string]any)["follower"].(map[string]any)
		if _, ok := fol["last_heartbeat_unix_nano"]; ok && st["epoch"] == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up with a heartbeat: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, tc := range []struct {
		name           string
		url            string
		role           string
		stats, metrics []string
	}{
		{"plain", plain.URL, "", goldenStatsCommon, goldenMetricsCommon},
		{"wal", durable.URL, "", sorted(goldenStatsCommon, goldenStatsDurability),
			sorted(goldenMetricsCommon, goldenMetricsDurability)},
		{"primary", primary.URL, "primary", sorted(goldenStatsCommon, goldenStatsPrimary),
			sorted(goldenMetricsCommon, goldenMetricsPrimary)},
		{"replica", replica.URL, "replica", sorted(goldenStatsCommon, goldenStatsReplica),
			sorted(goldenMetricsCommon, goldenMetricsReplica)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := statsKeys(t, tc.url); !slices.Equal(got, tc.stats) {
				t.Errorf("/stats keys:\n got %q\nwant %q", got, tc.stats)
			}
			if got := metricFamilies(t, tc.url); !slices.Equal(got, tc.metrics) {
				t.Errorf("/metrics families:\n got %q\nwant %q", got, tc.metrics)
			}
			if tc.role != "" {
				st := decode[map[string]any](t, get(t, tc.url+"/stats"))
				if role := st["replication"].(map[string]any)["role"]; role != tc.role {
					t.Errorf("replication.role = %v, want %q", role, tc.role)
				}
			}
		})
	}
}
