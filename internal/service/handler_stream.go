package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// GET /v1/jobs/{id}/events — the wire surface of serve-then-improve.
//
// The default answer is a Server-Sent Events stream: one frame per stream
// event, `id:` carrying the incumbent sequence number, `event:` the stage
// (mapped | improved | done | failed) and `data:` the StreamEvent JSON. The
// stream replays from `?after=<seq>` (or the standard Last-Event-ID header,
// so EventSource reconnects resume seamlessly) and closes after the final
// event. `?mode=poll` answers one long-poll page of JSON instead — events
// past `after`, held up to `wait_ms` (default 30s, capped at 60s) when
// nothing new is available — for clients without SSE plumbing.

// EventsPage is the long-poll (?mode=poll) form of a job's event log: the
// events past the requested sequence number, whether the stream is
// complete, and the sequence number to pass as after on the next poll.
type EventsPage struct {
	Events []StreamEvent `json:"events"`
	Done   bool          `json:"done"`
	Next   int64         `json:"next"`
}

const (
	defaultPollWait = 30 * time.Second
	maxPollWait     = 60 * time.Second
)

// serveJobEvents implements GET /v1/jobs/{id}/events for both disciplines.
func serveJobEvents(s *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	after := parseAfter(r)
	if r.URL.Query().Get("mode") == "poll" {
		serveEventsPoll(s, w, r, id, after)
		return
	}
	serveEventsSSE(s, w, r, id, after)
}

// parseAfter resolves the resume point: the after query parameter wins,
// then the SSE-standard Last-Event-ID reconnect header; 0 replays all.
func parseAfter(r *http.Request) int64 {
	raw := r.URL.Query().Get("after")
	if raw == "" {
		raw = r.Header.Get("Last-Event-ID")
	}
	after, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || after < 0 {
		return 0
	}
	return after
}

// serveEventsPoll answers one long-poll page: immediately when events past
// after exist (or the stream is complete), otherwise after holding the
// request up to wait_ms for the next event.
func serveEventsPoll(s *Service, w http.ResponseWriter, r *http.Request, id string, after int64) {
	wait := defaultPollWait
	if raw := r.URL.Query().Get("wait_ms"); raw != "" {
		msec, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || msec < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait_ms %q", raw))
			return
		}
		wait = min(time.Duration(msec)*time.Millisecond, maxPollWait)
	}
	ctx := r.Context()
	if wait > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}
	evs, done, err := s.WaitEvents(ctx, id, after)
	if err != nil && ctx.Err() == nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// A wait that simply timed out answers an empty page, not an error:
	// long-polling clients re-arm on empty pages.
	page := EventsPage{Events: evs, Done: done, Next: after}
	if page.Events == nil {
		page.Events = []StreamEvent{}
	}
	if n := len(evs); n > 0 {
		page.Next = evs[n-1].Seq
	}
	writeJSON(w, http.StatusOK, page)
}

// serveEventsSSE streams the event log as Server-Sent Events until the
// final event or client disconnect, flushing after every frame so each
// incumbent reaches the client the moment it lands.
func serveEventsSSE(s *Service, w http.ResponseWriter, r *http.Request, id string, after int64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		evs, done, err := s.WaitEvents(r.Context(), id, after)
		if err != nil {
			return // client went away (or the job aged out mid-stream)
		}
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Stage, data)
			after = e.Seq
		}
		flusher.Flush()
		if done {
			return
		}
	}
}
