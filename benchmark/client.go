package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"kcore/internal/graph"
)

// tally counts one role's operations. Any non-2xx answer (412, 429 and 503
// included) and any transport error is a failure.
type tally struct {
	attempted, failed int64
}

// client is one client role's connection to one server: a private transport
// holding a single keep-alive connection. It is used by one goroutine.
type client struct {
	hc   *http.Client
	base string
	tally
	buf []byte // request body scratch
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON reply into out (when non-nil).
func (c *client) do(method, path string, body []byte, out any) error {
	c.attempted++
	_, err := c.roundTrip(method, path, body, out)
	if err != nil {
		c.failed++
	}
	return err
}

func (c *client) roundTrip(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// get is do without failure accounting, for readiness polling.
func (c *client) get(path string, out any) (int, error) {
	return c.roundTrip(http.MethodGet, path, nil, out)
}

type batchReply struct {
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
}

// applyBatch posts one update batch; a reply that did not apply every edge
// is a failure (the generator never sends a no-op edge).
func (c *client) applyBatch(ins, del []graph.Edge) error {
	c.buf = appendBatchJSON(c.buf[:0], ins, del)
	var rep batchReply
	if err := c.do(http.MethodPost, "/edges/batch", c.buf, &rep); err != nil {
		return err
	}
	if rep.Inserted != len(ins) || rep.Deleted != len(del) {
		c.failed++
		return fmt.Errorf("batch applied %d+%d of %d+%d edges", rep.Inserted, rep.Deleted, len(ins), len(del))
	}
	return nil
}

type bulkReply struct {
	Coreness []float64 `json:"coreness"`
	Epoch    uint64    `json:"epoch"`
}

// bulk reads ids in one POST /coreness/bulk; see appendBulkJSON for at/floor.
func (c *client) bulk(ids []uint32, at, floor int64) (bulkReply, error) {
	c.buf = appendBulkJSON(c.buf[:0], ids, at, floor)
	var rep bulkReply
	if err := c.do(http.MethodPost, "/coreness/bulk", c.buf, &rep); err != nil {
		return rep, err
	}
	if len(rep.Coreness) != len(ids) {
		c.failed++
		return rep, fmt.Errorf("bulk read returned %d of %d values", len(rep.Coreness), len(ids))
	}
	return rep, nil
}

// statsReply is the part of GET /stats the harness uses.
type statsReply struct {
	Edges      int64  `json:"edges"`
	Epoch      uint64 `json:"epoch"`
	Durability *struct {
		LogBytes  int64  `json:"log_bytes"`
		Recovered uint64 `json:"recovered_batches"`
	} `json:"durability"`
	Feed struct {
		Drops uint64 `json:"drops"`
		Gaps  uint64 `json:"gaps"`
	} `json:"feed"`
	Overload struct {
		RateLimited int64 `json:"rate_limited"`
		LoadShed    int64 `json:"load_shed"`
		Timeouts    int64 `json:"timeouts"`
	} `json:"overload"`
}

func (c *client) stats() (statsReply, error) {
	var rep statsReply
	err := c.do(http.MethodGet, "/stats", nil, &rep)
	return rep, err
}

// preload inserts the initial window, one request per chunk.
func (c *client) preload(in *inputs) error {
	for _, chunk := range in.preload() {
		if err := c.applyBatch(chunk, nil); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// feedEvent is one coreness transition of an SSE `event: epoch` message.
type feedEvent struct {
	Vertex  uint32  `json:"vertex"`
	OldCore float64 `json:"old_core"`
	NewCore float64 `json:"new_core"`
}

// feedMessage is one received `event: epoch` message and when it arrived.
type feedMessage struct {
	Epoch  uint64      `json:"epoch"`
	Events []feedEvent `json:"events"`
	at     time.Time
}

// subscription is the subscriber role: one GET /subscribe stream read by one
// goroutine, every `event: epoch` timestamped on arrival.
type subscription struct {
	cancel context.CancelFunc
	done   chan struct{}
	hello  chan struct{} // closed once `event: hello` arrived

	// Written by the reader goroutine, read only after done is closed.
	messages []feedMessage
	gaps     int
	err      error
}

// subscribe opens the stream and returns once the server has attached the
// subscription (its hello message), so no later commit can be missed.
func subscribe(addr, query string) (*subscription, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscription{cancel: cancel, done: make(chan struct{}), hello: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/subscribe?"+query, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /subscribe: status %d", resp.StatusCode)
	}
	go func() {
		defer close(s.done)
		defer hc.CloseIdleConnections()
		defer resp.Body.Close()
		s.err = s.read(ctx, resp.Body)
	}()
	select {
	case <-s.hello:
		return s, nil
	case <-s.done:
		cancel()
		return nil, fmt.Errorf("subscribe stream ended before hello: %v", s.err)
	case <-time.After(10 * time.Second):
		s.close()
		return nil, fmt.Errorf("no hello from /subscribe within 10s")
	}
}

func (s *subscription) read(ctx context.Context, body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // one message carries a whole epoch's events
	event, greeted := "", false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			now := time.Now()
			switch event {
			case "hello":
				if !greeted {
					greeted = true
					close(s.hello)
				}
			case "epoch":
				m := feedMessage{at: now}
				if err := json.Unmarshal([]byte(line[len("data: "):]), &m); err != nil {
					return fmt.Errorf("decoding SSE epoch message: %w", err)
				}
				s.messages = append(s.messages, m)
			case "gap":
				s.gaps++
			}
		}
	}
	if ctx.Err() != nil {
		return nil // closed by us
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// close ends the stream and waits for the reader goroutine.
func (s *subscription) close() {
	s.cancel()
	<-s.done
}
