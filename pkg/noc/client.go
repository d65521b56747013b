package noc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strings"
	"syscall"
	"time"

	"nocmap/internal/service"
)

// Wire types of the /v1 service surface, shared verbatim with the server so
// client and daemon cannot drift.
type (
	// MapRequest is the body of POST /v1/map: the design JSON plus engine
	// and parameter overrides. BuildMapRequest constructs one from a Design
	// and options.
	MapRequest = service.MapRequest
	// MapResponse is the body of a synchronous POST /v1/map reply: the
	// result summary plus the cache verdict.
	MapResponse = service.Response
	// JobStatus is the body of GET /v1/jobs/{id} and of an async map's 202
	// reply.
	JobStatus = service.JobStatus
	// ServerStats is the body of GET /v1/stats: cache and pool gauges.
	ServerStats = service.Stats
)

// ContextWithRequestID tags the context with a request ID that the Client
// will forward to the daemon as X-Request-ID, tying client-side calls to the
// server's logs and job records. Without one, the Client generates a fresh
// ID per call.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return service.ContextWithRequestID(ctx, id)
}

// RequestIDFrom returns the context's request ID, or "" when untagged.
func RequestIDFrom(ctx context.Context) string { return service.RequestIDFrom(ctx) }

// NewRequestID returns a fresh 16-hex-digit random request ID.
func NewRequestID() string { return service.NewRequestID() }

// ErrNotFound reports a lookup for a resource the daemon does not hold
// (an uncached design digest, a forgotten job). Test with errors.Is.
var ErrNotFound = errors.New("noc: not found")

// ServerError is a non-2xx reply from the daemon: the HTTP status, the
// server's diagnostic when the body carried one, and the request ID to
// match against the daemon's logs. Retrieve it with errors.As to branch on
// the status code.
type ServerError struct {
	// Status is the HTTP status code of the reply.
	Status int
	// Msg is the server's diagnostic ("" when the body carried none).
	Msg string
	// Path is the request path the error came from.
	Path string
	// RequestID is the X-Request-ID the failing request went out with.
	RequestID string
}

func (e *ServerError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("noc: server: %s (HTTP %d, request %s)", e.Msg, e.Status, e.RequestID)
	}
	return fmt.Sprintf("noc: server: HTTP %d on %s (request %s)", e.Status, e.Path, e.RequestID)
}

// Client talks to a running nocserved daemon over its versioned /v1 HTTP
// surface. Repeated identical requests from any number of clients share the
// daemon's result cache. The zero value is not usable; construct with
// NewClient.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retry   RetryPolicy
}

// RetryPolicy bounds the client's retries of transient failures: HTTP 502
// and 503 replies and connection-level dial errors (connection refused, a
// replica mid-restart). Non-transient failures — 4xx, decode errors, an
// expired context — are never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3). 1 disables retries.
	MaxAttempts int
	// BaseDelay seeds the backoff: attempt n waits a uniformly random
	// ("full jitter") slice of BaseDelay·2ⁿ⁻¹, capped at MaxDelay.
	// Default 100ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 2s).
	MaxDelay time.Duration
}

// withDefaults fills in the documented defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the sleep before retry number attempt (1-based): full
// jitter over an exponentially growing, capped window. Full jitter
// decorrelates a thundering herd of clients retrying against one recovering
// replica.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	window := p.BaseDelay << (attempt - 1)
	if window <= 0 || window > p.MaxDelay {
		window = p.MaxDelay
	}
	return time.Duration(rand.Int64N(int64(window))) + 1
}

// WithRetry makes the client retry transient failures (502/503 replies and
// connection-refused dials) under the given policy; zero fields take the
// documented defaults. Requests with bodies are replayed from scratch, so
// retried POSTs are safe: /v1/map is idempotent by design (identical
// requests share one cache entry and one flight).
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom transport,
// instrumentation, test doubles).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout bounds every request issued by the client, covering
// connection, server queueing and the engine run — the guard that keeps a
// hung server from stalling a caller forever. Zero (the default) waits
// indefinitely; per-call contexts still apply either way.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://localhost:8080").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	// Applied after all options so WithTimeout and WithHTTPClient compose in
	// either order; the caller's client is copied, never mutated.
	if c.timeout > 0 {
		hc := *c.hc
		hc.Timeout = c.timeout
		c.hc = &hc
	}
	return c
}

// BuildMapRequest translates a design plus options into the wire form of
// POST /v1/map. Local-only options (WithProgress, WithWeights, WithParams,
// WithRestarts) are rejected: the service computes with its own
// configuration so results stay cacheable across callers.
func BuildMapRequest(d *Design, opts ...Option) (MapRequest, error) {
	cfg := newConfig(opts)
	var mr MapRequest
	switch {
	case cfg.opts.Progress != nil:
		return mr, fmt.Errorf("noc: WithProgress streams from in-process engines only; drop it for remote mapping")
	case cfg.weightsSet:
		return mr, fmt.Errorf("noc: WithWeights is local-only; the service scores with its configured weights")
	case cfg.paramsSet:
		return mr, fmt.Errorf("noc: WithParams is local-only; use the individual overrides (WithFrequencyMHz, WithSlotTableSize, ...)")
	case cfg.restarts != nil:
		return mr, fmt.Errorf("noc: WithRestarts is local-only; the service runs with its default restart count")
	case cfg.budget < 0:
		return mr, fmt.Errorf("noc: budget %v invalid", cfg.budget)
	}
	mr.Design = d.JSON()
	mr.Engine = cfg.engine
	mr.Topology = cfg.topology
	mr.Seed = cfg.seed
	mr.Seeds = cfg.seeds
	mr.Iters = cfg.iters
	mr.Population = cfg.population
	mr.Generations = cfg.generations
	mr.Nodes = cfg.nodes
	if cfg.budget > 0 {
		mr.TimeoutMS = max(cfg.budget.Milliseconds(), 1)
	}
	mr.FreqMHz = cfg.freq
	mr.Slots = cfg.slots
	mr.MaxDim = cfg.maxDim
	return mr, nil
}

// Map sends the design to the daemon and waits for the result. The reply
// reports whether it was served from the daemon's cache.
func (c *Client) Map(ctx context.Context, d *Design, opts ...Option) (*MapResponse, error) {
	mr, err := BuildMapRequest(d, opts...)
	if err != nil {
		return nil, err
	}
	var resp MapResponse
	if err := c.post(ctx, "/v1/map", mr, http.StatusOK, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Submit enqueues the design asynchronously and returns the job to poll
// with Job.
func (c *Client) Submit(ctx context.Context, d *Design, opts ...Option) (JobStatus, error) {
	mr, err := BuildMapRequest(d, opts...)
	if err != nil {
		return JobStatus{}, err
	}
	mr.Async = true
	var st JobStatus
	if err := c.post(ctx, "/v1/map", mr, http.StatusAccepted, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Job polls an asynchronous job's state.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	if err := c.get(ctx, "/v1/jobs/"+id, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Design fetches the cached result for a request digest (the Key field of
// an earlier MapResponse or JobStatus) without admitting any work. A digest
// the daemon's store does not hold reports ErrNotFound; a daemon that is
// shutting down answers 503, a *ServerError retried under WithRetry.
func (c *Client) Design(ctx context.Context, digest string) (*MapResponse, error) {
	var resp MapResponse
	if err := c.get(ctx, "/v1/designs/"+url.PathEscape(digest), &resp); err != nil {
		var se *ServerError
		if errors.As(err, &se) && se.Status == http.StatusNotFound {
			return nil, fmt.Errorf("%w: no cached result for digest %s", ErrNotFound, digest)
		}
		return nil, err
	}
	return &resp, nil
}

// Stats reads the daemon's cache and pool gauges.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	var st ServerStats
	err := c.get(ctx, "/v1/stats", &st)
	return st, err
}

// Version reads the daemon's build identity.
func (c *Client) Version(ctx context.Context) (VersionInfo, error) {
	var v VersionInfo
	err := c.get(ctx, "/v1/version", &v)
	return v, err
}

func (c *Client) post(ctx context.Context, path string, body any, wantStatus int, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, wantStatus, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, http.StatusOK, out)
}

// do executes the request, mapping non-2xx replies to *ServerError carrying
// the server's diagnostic, and retrying transient failures under the
// client's RetryPolicy (no policy = exactly one attempt). Every request
// goes out with an X-Request-ID — the context's, or a freshly generated
// one — so a failing call can be matched to the daemon's log lines; errors
// quote the ID for that reason. Retries keep the ID, so one logical call is
// one trace server-side.
func (c *Client) do(req *http.Request, wantStatus int, out any) error {
	id := RequestIDFrom(req.Context())
	if id == "" {
		id = NewRequestID()
	}
	req.Header.Set("X-Request-ID", id)
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if !c.rewind(req) {
				return lastErr // body cannot be replayed; report the last failure
			}
			select {
			case <-time.After(c.retry.backoff(attempt)):
			case <-req.Context().Done():
				return lastErr
			}
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("noc: %s %s [request %s]: %w", req.Method, req.URL, id, err)
			if transientConnErr(err) {
				continue
			}
			return lastErr
		}
		if resp.StatusCode != wantStatus {
			se := &ServerError{Status: resp.StatusCode, Path: req.URL.Path, RequestID: id}
			var e struct {
				Error string `json:"error"`
			}
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e) == nil {
				se.Msg = e.Error
			}
			resp.Body.Close()
			lastErr = se
			if se.Status == http.StatusBadGateway || se.Status == http.StatusServiceUnavailable {
				continue
			}
			return lastErr
		}
		if out != nil {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("noc: decode %s reply: %w", req.URL.Path, err)
		}
		return nil
	}
	return lastErr
}

// rewind resets the request body for a retry. Bodiless requests always
// rewind; bodied ones need GetBody (set automatically for the in-memory
// readers post/get use).
func (c *Client) rewind(req *http.Request) bool {
	if req.Body == nil {
		return true
	}
	if req.GetBody == nil {
		return false
	}
	body, err := req.GetBody()
	if err != nil {
		return false
	}
	req.Body = body
	return true
}

// transientConnErr reports whether err is a connection-level failure worth
// retrying: a refused or reset connection, or any dial-phase error (a
// replica mid-restart). Context expiry is the caller giving up, never
// transient.
func transientConnErr(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}
