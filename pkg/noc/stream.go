package noc

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"nocmap/internal/service"
)

// StreamEvent is one serve-then-improve notification from the daemon's
// GET /v1/jobs/{id}/events stream: a monotonically increasing sequence
// number, the stage (mapped | improved | done | failed), the incumbent's
// cost and full result summary, and the emitting engine's cumulative search
// counters. Shared verbatim with the server.
type StreamEvent = service.StreamEvent

// Improvement is one delivery on a MapStream channel: a stream event tagged
// with the job it belongs to, or a terminal stream error. Exactly one of
// the embedded event (Err == nil) and Err is meaningful; after an
// Improvement with Err != nil, or one whose event is Final, the channel
// closes.
type Improvement struct {
	StreamEvent
	// Job is the daemon-side job ID the event belongs to (poll it with
	// Client.Job for the authoritative final status).
	Job string
	// Err reports a broken stream (transport failure, daemon restart). A
	// nil Err means the embedded StreamEvent is valid.
	Err error
}

// MapStream submits the design in serve-then-improve mode and streams the
// daemon's anytime results: the first delivery is the greedy result the
// daemon computed inline (stage "mapped", available within milliseconds),
// each subsequent one a strictly better incumbent found by the requested
// engine in the background, and the last — marked Final — the job's
// terminal event, whose Response matches GET /v1/jobs/{id} for the
// finished job. The channel closes after the final event, after a delivery
// with Err set, or when ctx is cancelled (which also abandons the
// server-side read; the daemon's background run completes regardless and
// still upgrades its cache). A final Response marked Truncated was cut
// short by the job deadline (WithBudget) and was not stored.
//
// A request that joins a live synchronous or asynchronous run of the same
// digest follows that job instead: its status says stream false and
// carries no result, and its only delivery is the final done event, whose
// Response is the synchronous answer.
//
// The stream resumes transparently across broken connections using the
// last seen sequence number, so a delivery is never duplicated or skipped.
func (c *Client) MapStream(ctx context.Context, d *Design, opts ...Option) (<-chan Improvement, error) {
	mr, err := BuildMapRequest(d, opts...)
	if err != nil {
		return nil, err
	}
	mr.Mode = "stream"
	var st JobStatus
	if err := c.post(ctx, "/v1/map", mr, http.StatusAccepted, &st); err != nil {
		return nil, err
	}
	ch := make(chan Improvement, 8)
	go c.streamEvents(ctx, st.ID, ch)
	return ch, nil
}

// streamEvents consumes the job's SSE stream into ch, reconnecting with
// ?after=<last seq> on transport hiccups, and closes ch when the stream
// finishes for any reason.
func (c *Client) streamEvents(ctx context.Context, jobID string, ch chan<- Improvement) {
	defer close(ch)
	var after int64
	stalls := 0
	for {
		n, final, err := c.readEventStream(ctx, jobID, after, ch)
		after += n
		switch {
		case final:
			return
		case ctx.Err() != nil:
			return
		case n == 0:
			stalls++
			if stalls >= 2 {
				// Two consecutive attempts without a single new event: the
				// stream is broken, not slow. Surface the error and stop.
				if err == nil {
					err = fmt.Errorf("connection closed before the final event")
				}
				select {
				case ch <- Improvement{Job: jobID, Err: fmt.Errorf("noc: event stream for job %s: %w", jobID, err)}:
				case <-ctx.Done():
				}
				return
			}
		default:
			stalls = 0
		}
	}
}

// readEventStream runs one SSE connection, delivering parsed events to ch.
// It returns how many events it delivered, whether a Final event arrived,
// and the transport error that ended the connection, if any.
func (c *Client) readEventStream(ctx context.Context, jobID string, after int64, ch chan<- Improvement) (n int64, final bool, _ error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+jobID+"/events?after="+strconv.FormatInt(after, 10), nil)
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("X-Request-ID", NewRequestID())
	// The stream lives as long as the job improves: WithTimeout's
	// whole-request deadline must not apply to it, only ctx does.
	hc := *c.hc
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return 0, false, fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return 0, false, fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20) // results carry full placements
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			// Multi-line data fields concatenate with newlines, per the SSE
			// grammar.
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		case line == "" && data.Len() > 0:
			var ev StreamEvent
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return n, false, fmt.Errorf("decode event: %w", err)
			}
			data.Reset()
			select {
			case ch <- Improvement{StreamEvent: ev, Job: jobID}:
			case <-ctx.Done():
				return n, false, ctx.Err()
			}
			n++
			if ev.Final {
				return n, true, nil
			}
		}
	}
	return n, false, sc.Err()
}
