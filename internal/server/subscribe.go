package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kcore"
)

// DefaultFeedHeartbeat is how often an idle /subscribe stream sends an
// SSE comment line so clients and intermediaries can tell a quiet feed
// from a dead connection. Override with WithFeedHeartbeat.
const DefaultFeedHeartbeat = 15 * time.Second

// This file implements GET /subscribe: the server-sent-events transport
// of the change feed. Wire format (SSE):
//
//	event: hello                       — once, on connect
//	data: {"epoch": <current epoch>}
//
//	event: epoch                       — one message per committed batch
//	data: {"epoch": e, "events": [{"epoch":e,"vertex":v,
//	       "old_core":x,"new_core":y}, ...]}
//
//	event: gap                         — the subscriber was too slow
//	data: {"from": a, "to": b}           (missed epochs [a, b]; recover
//	                                      with a ?epoch=b read)
//
//	: heartbeat                        — comment line while idle
//
// Query parameters select the filter (all events by default):
//
//	vertices=1,2,3    only these vertices
//	cross_k=5         only transitions crossing coreness 5
//	min_delta=0.5     only |new-old| >= 0.5
//
// The endpoint deliberately bypasses the metrics instrumentation and the
// request-timeout middleware: both buffer the response through writers
// that cannot flush a live stream, and a subscription is expected to
// outlive any request deadline. The rate limiter still applies (the
// subscription handshake is one request).

// sseHello is the first message of a /subscribe stream.
type sseHello struct {
	Epoch uint64 `json:"epoch"`
}

// sseEpoch is one committed batch's matching events.
type sseEpoch struct {
	Epoch  uint64            `json:"epoch"`
	Events []kcore.CoreEvent `json:"events"`
}

// sseGap tells the subscriber it missed epochs [From, To].
type sseGap struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// parseFeedFilter builds the subscription filter from query parameters.
func (s *Server) parseFeedFilter(r *http.Request) (kcore.EventFilter, error) {
	var f kcore.EventFilter
	q := r.URL.Query()
	if raw := q.Get("vertices"); raw != "" {
		n := uint64(s.d.NumVertices())
		for _, part := range strings.Split(raw, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			v, err := strconv.ParseUint(part, 10, 32)
			if err != nil {
				return f, fmt.Errorf("bad vertex %q", part)
			}
			if v >= n {
				return f, fmt.Errorf("vertex %d out of range (have %d vertices)", v, n)
			}
			f.Vertices = append(f.Vertices, uint32(v))
		}
		if len(f.Vertices) == 0 {
			return f, errors.New("empty vertices list")
		}
	}
	if raw := q.Get("cross_k"); raw != "" {
		k, err := strconv.ParseFloat(raw, 64)
		if err != nil || k <= 0 {
			return f, fmt.Errorf("bad cross_k %q (want a positive number)", raw)
		}
		f.CrossK = k
	}
	if raw := q.Get("min_delta"); raw != "" {
		d, err := strconv.ParseFloat(raw, 64)
		if err != nil || d <= 0 {
			return f, fmt.Errorf("bad min_delta %q (want a positive number)", raw)
		}
		f.MinDelta = d
	}
	return f, nil
}

// handleSubscribe serves one SSE change-feed subscription until the
// client disconnects or the server shuts down.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	filter, err := s.parseFeedFilter(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, codeInternal, "response writer cannot stream")
		return
	}
	sub, err := s.d.Subscribe(filter)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, codeOverloaded, err.Error())
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	send := func(event string, payload any) bool {
		data, err := json.Marshal(payload)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !send("hello", sseHello{Epoch: s.d.Epoch()}) {
		return
	}

	heartbeat := s.feedHeartbeat
	if heartbeat <= 0 {
		heartbeat = DefaultFeedHeartbeat
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case d, ok := <-sub.C():
			if !ok {
				return // hub closed (server shutdown)
			}
			if d.Gap {
				if !send("gap", sseGap{From: d.GapFrom, To: d.GapTo}) {
					return
				}
				continue
			}
			if !send("epoch", sseEpoch{Epoch: d.Epoch, Events: d.Events}) {
				return
			}
		}
	}
}
