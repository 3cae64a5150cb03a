package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// serverProcs is GOMAXPROCS of a kcore-server, and so its engine's worker
// count (the server has no flag for it): the two cores of the box the
// benchmark was written on. svc_ingest_durable's server runs with
// ingestProcs instead, see there.
const serverProcs = 2

// requestTimeout is the servers' per-request deadline and this side's HTTP
// timeout. The server's default of 10 s turned one stall of the (virtual)
// machine, seen once in some 600 server starts and never reproduced, into a
// 503 and so into a failed run; with a minute a stall is an outlier in the
// latency series, and a server that really hangs still fails the run.
const requestTimeout = 60 * time.Second

// readyTimeout bounds every wait for a server to come up, recovery and
// replica bootstrap included.
const readyTimeout = 60 * time.Second

// node is one running kcore-server and the address it listens on.
type node struct {
	*proc
	addr string
}

// launch starts a kcore-server with the given GOMAXPROCS on a free port and
// waits until it is ready.
func (e *env) launch(maxProcs int, dir, name string, z sizing, args ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-n", strconv.Itoa(z.Vertices), "-addr", addr, "-request-timeout", requestTimeout.String()}, args...)
	p, err := e.startServer(maxProcs, dir, name, args...)
	if err != nil {
		return nil, err
	}
	s := &node{proc: p, addr: addr}
	probe := newClient(addr)
	defer probe.close()
	if err := probe.waitReady(p, readyTimeout); err != nil {
		p.kill()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// deployment is a workload's set of running servers.
type deployment struct {
	servers []*node
}

// diagnose returns every server's goroutine stacks, ending the servers.
func (d *deployment) diagnose() string {
	var b strings.Builder
	for i, s := range d.servers {
		fmt.Fprintf(&b, "--- server %d (%s) ---\n%s\n", i, s.addr, s.stacks())
	}
	return b.String()
}

// release is deferred by every service workload: it ends the deployment,
// after a failed run printing the servers' stacks first.
func (d *deployment) release(err *error) {
	if *err != nil && len(d.servers) > 0 {
		fmt.Fprint(os.Stderr, d.diagnose())
	}
	d.down()
}

func (d *deployment) down() {
	for _, s := range d.servers {
		s.kill()
	}
	d.servers = nil
}

// peakRSSMB sums the servers' peak resident sets.
func (d *deployment) peakRSSMB() (float64, error) {
	var sum float64
	for _, s := range d.servers {
		mb, err := s.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// upFunc brings a workload's deployment up in dir and reports how long that
// took. On failure it returns the servers it had started, for their stacks.
type upFunc func(dir string) (*deployment, time.Duration, error)

// setUp brings a deployment up in a fresh directory under out/tmp, which the
// caller removes. A set-up that fails is tried once more, after the servers'
// stacks are printed: with two engine workers a preload batch can hang in
// the product (README.md, "A defect of the product"), and one hang in a
// thousand starts should cost a run a minute, not a session of ninety runs
// its result. A second failure is the run's. Every retry is counted in the
// run's result.
func (e *env) setUp(name string, up upFunc) (*deployment, string, time.Duration, error) {
	for attempt := 1; ; attempt++ {
		dir, err := e.tempDir(name)
		if err != nil {
			return nil, "", 0, err
		}
		d, took, err := up(dir)
		if err == nil {
			return d, dir, took, nil
		}
		if d != nil {
			d.release(&err)
		}
		os.RemoveAll(dir)
		if attempt == 2 {
			return nil, "", 0, err
		}
		e.setupRetries++
		fmt.Fprintf(os.Stderr, "benchmark: %s: set-up failed, trying once more: %v\n", name, err)
	}
}

// repeatSetup brings a workload's deployment up and straight down again
// until setups holds SetupRepeats timings, and returns their median.
func (e *env) repeatSetup(z sizing, setups []float64, up upFunc) (float64, error) {
	for len(setups) < z.SetupRepeats {
		d, dir, took, err := e.setUp("setup", up)
		if err != nil {
			return 0, err
		}
		d.down()
		os.RemoveAll(dir)
		setups = append(setups, took.Seconds())
	}
	return median(setups), nil
}

// fullRead reads every vertex at the latest epoch in one bulk request.
func fullRead(c *client, in *inputs) (bulkReply, error) {
	return c.bulk(in.allVertices(), -1, -1)
}
