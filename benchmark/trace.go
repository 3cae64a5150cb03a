package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// maxSpansPerName bounds what a trace file keeps of each span name; every
// call still counts towards the per-layer metrics. Without it one run
// records over a million read spans.
const maxSpansPerName = 2000

// span is one timed call into one layer's public function. Spans of the
// same request (update batch or read, numbered by Req) share Req; Parent is
// the index of the span of the enclosing layer on that request, -1 for the
// outermost. The layers run as independent instances fed the same input, so
// a parent encloses its child by construction, not in time.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory and writes them once, at exit.
type tracer struct {
	t0    time.Time
	spans []span
	kept  map[string]int
	// perReq[name][req] is the total time of the name's calls on a request
	// (a sharded layer is called once per shard). crit[name][req] is, for
	// the layers below a sharded engine, the time of the slowest shard only:
	// the engine runs its shards side by side, so only that one blocks the
	// request. Names without a crit entry block with all their calls.
	perReq map[string][]time.Duration
	crit   map[string][]time.Duration
	total  map[string]time.Duration
	calls  map[string]int
	last   time.Duration // duration of the most recent span
}

func newTracer() *tracer {
	return &tracer{
		t0: time.Now(), kept: map[string]int{}, perReq: map[string][]time.Duration{},
		crit: map[string][]time.Duration{}, total: map[string]time.Duration{}, calls: map[string]int{},
	}
}

// call times f as one span and returns the span's index, or -1 when the
// name's quota of kept spans is used up.
func (t *tracer) call(name string, parent, req int, f func()) int {
	start := time.Now()
	f()
	return t.record(name, parent, req, start, time.Now())
}

func (t *tracer) record(name string, parent, req int, start, end time.Time) int {
	d := end.Sub(start)
	t.last = d
	t.total[name] += d
	t.calls[name]++
	addAt(t.perReq, name, req, d)
	if t.kept[name] >= maxSpansPerName {
		return -1
	}
	t.kept[name]++
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func addAt(m map[string][]time.Duration, name string, req int, d time.Duration) {
	pr := m[name]
	for len(pr) <= req {
		pr = append(pr, 0)
	}
	pr[req] += d
	m[name] = pr
}

// blocking is a name's per-request time on the request's critical path.
func (t *tracer) blocking(name string) []time.Duration {
	if c, ok := t.crit[name]; ok {
		return c
	}
	return t.perReq[name]
}

// med is the median of a name's per-request blocking time.
func (t *tracer) med(name string) time.Duration {
	d, _ := samples(t.blocking(name)).sorted().percentile(50)
	return d
}

// self is the median over requests of outer's blocking time minus the inner
// layers' on the same request: the outer layer's own work.
func (t *tracer) self(outer string, inner ...string) time.Duration {
	var diffs samples
	for req, d := range t.blocking(outer) {
		for _, name := range inner {
			if pr := t.blocking(name); req < len(pr) {
				d -= pr[req]
			}
		}
		diffs = append(diffs, d)
	}
	// The instances are separate, so on a cheap call the difference can dip
	// below zero by measurement noise.
	d, _ := diffs.sorted().percentile(50)
	return max(d, 0)
}

// mean is a name's mean time per call.
func (t *tracer) mean(name string) time.Duration {
	if t.calls[name] == 0 {
		return 0
	}
	return t.total[name] / time.Duration(t.calls[name])
}

func (t *tracer) write(e *env, workload string) (string, error) {
	path := filepath.Join(e.outDir(), "trace-"+workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
