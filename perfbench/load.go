package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nocmap/pkg/noc"
)

// The load side of the HTTP workloads: an in-process mapping service behind
// httptest and closed-loop clients, one keep-alive connection each, in the
// same process. A closed loop models callers that each wait for their
// answer before asking again; with as many clients as cores the service is
// kept busy without building a queue the clients never drain.

// server is one in-process mapping service.
type server struct {
	svc  *noc.Server
	http *httptest.Server
}

// startServer starts a service with one worker per CPU on st (nil: the
// default 128-entry memory store).
func startServer(st noc.ResultStore) *server {
	svc := noc.NewServer(noc.ServerConfig{Workers: runtime.NumCPU(), Store: st})
	return &server{svc: svc, http: httptest.NewServer(svc.Handler())}
}

// close stops the listener, then the worker pool (which closes the store).
func (s *server) close() {
	s.http.Close()
	s.svc.Close()
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClients(base string, n int) []*client {
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{base: base, hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}}
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// opTimeout bounds one request, so a wedged service fails the run instead
// of hanging it.
const opTimeout = 60 * time.Second

func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// answer is the part of a /v1/map response envelope the benchmark reads.
type answer struct {
	Cached  bool            `json:"cached"`
	Timings *noc.Timings    `json:"timings"`
	Result  json.RawMessage `json:"result"`
}

// mapSync posts one synchronous /v1/map request.
func (c *client) mapSync(ctx context.Context, body []byte) (answer, int, error) {
	status, data, err := c.call(ctx, http.MethodPost, "/v1/map", body)
	if err != nil {
		return answer{}, status, err
	}
	var a answer
	if status/100 == 2 {
		err = json.Unmarshal(data, &a)
	}
	return a, status, err
}

// mapStream posts a serve-then-improve request and follows its event
// stream to the final event. It returns the time to the first result (the
// greedy mapping in the 202 reply), the first and the final answers.
func (c *client) mapStream(ctx context.Context, body []byte) (ttfr time.Duration, first, final answer, err error) {
	start := time.Now()
	status, data, err := c.call(ctx, http.MethodPost, "/v1/map", body)
	if err != nil {
		return 0, first, final, err
	}
	if status != http.StatusAccepted {
		return 0, first, final, fmt.Errorf("stream submit: HTTP %d: %s", status, bytes.TrimSpace(data))
	}
	ttfr = time.Since(start)
	var job struct {
		ID     string  `json:"id"`
		State  string  `json:"state"`
		Result *answer `json:"result"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		return ttfr, first, final, err
	}
	if job.Result == nil {
		return ttfr, first, final, fmt.Errorf("stream submit: job %s carries no first result", job.ID)
	}
	first = *job.Result
	if job.State == "done" {
		return ttfr, first, first, nil
	}
	final, err = c.finalEvent(ctx, job.ID)
	return ttfr, first, final, err
}

// finalEvent reads a job's SSE stream until its final event.
func (c *client) finalEvent(ctx context.Context, id string) (answer, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return answer{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("events of job %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var event string
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")) && (event == "done" || event == "failed"):
			var e struct {
				Response *answer `json:"response"`
				Error    string  `json:"error"`
			}
			if err := json.Unmarshal(line[len("data: "):], &e); err != nil {
				return answer{}, err
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drains for connection reuse
			if event == "failed" || e.Response == nil {
				return answer{}, fmt.Errorf("job %s failed: %s", id, e.Error)
			}
			return *e.Response, nil
		}
	}
	if err := sc.Err(); err != nil {
		return answer{}, err
	}
	return answer{}, fmt.Errorf("events of job %s ended without a final event", id)
}

// closedLoop runs ops on every client until maxOps ops have started (when
// positive) or the phase has lasted until (when positive, on the phase
// clock). A client reads the clock before it takes the next op index, and
// every index taken below maxOps runs, so the ops that ran are exactly
// 0..n-1 whatever the interleaving. An op holds the window's gate, so none
// runs beside the reference job. It returns the ops sorted by index and the
// phase's measured resources.
func closedLoop(clients []*client, traced bool, maxOps int, until time.Duration,
	do func(c *client, i int) op) ([]op, usage) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		ops  []op
		wg   sync.WaitGroup
	)
	w := openWindow(traced)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				if until > 0 && w.since() >= until {
					return
				}
				i := int(next.Add(1) - 1)
				if maxOps > 0 && i >= maxOps {
					return
				}
				w.gate.RLock()
				o := do(c, i)
				o.idx, o.done = i, w.since()
				w.gate.RUnlock()
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	u := w.close()
	sortOps(ops)
	return ops, u
}
