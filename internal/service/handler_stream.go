package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// GET /v1/jobs/{id}/events — the wire surface of serve-then-improve.
//
// The answer is a Server-Sent Events stream: one frame per stream event,
// `id:` carrying the incumbent sequence number, `event:` the stage
// (mapped | improved | done | failed) and `data:` the StreamEvent JSON. The
// stream replays from `?after=<seq>` (or the standard Last-Event-ID header,
// so EventSource reconnects resume seamlessly) and closes after the final
// event. SSE is the only transport: a `mode` query parameter (the retired
// long-poll form) is a 400 naming it.

// serveJobEvents implements GET /v1/jobs/{id}/events.
func serveJobEvents(s *Service, w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Has("mode") {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown query parameter %q (events are served over SSE only)", "mode"))
		return
	}
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	serveEventsSSE(s, w, r, id, parseAfter(r))
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
