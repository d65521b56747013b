package service

import (
	"context"
	"encoding/json"
	"fmt"

	"nocmap/internal/store"
)

// This file is the service's seam to the pluggable result store
// (internal/store): the codec that lets byte-oriented tiers round-trip
// Response envelopes, and the thin instrumented wrappers the admission and
// finish paths call. Every Get and UpgradeIfBetter goes through them and is
// counted per backend, and store failures are absorbed as cache misses
// (availability over durability: a broken disk degrades the service to
// compute-always, it does not take it down).
//
// None of the wrappers may be called with the service mutex held: the
// store is self-locking, and the disk backend does file I/O that must
// never serialize the admission path.

// ResponseCodec round-trips Response envelopes as JSON for byte-oriented
// store tiers (the disk store's objects are encoded with it). It is
// exported so embedders constructing their own store stack (pkg/noc,
// cmd/nocserved) encode entries exactly the way the service expects to
// decode them.
type ResponseCodec struct{}

// Encode marshals a *Response.
func (ResponseCodec) Encode(val any) ([]byte, error) {
	resp, ok := val.(*Response)
	if !ok {
		return nil, fmt.Errorf("service: store codec got %T, want *Response", val)
	}
	return json.Marshal(resp)
}

// Decode unmarshals a *Response.
func (ResponseCodec) Decode(data []byte) (any, error) {
	var resp Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("service: store codec: %w", err)
	}
	return &resp, nil
}

// storeGet reads the digest from the result store. Errors (and values that
// are not Response envelopes) are logged, counted and reported as misses.
func (s *Service) storeGet(ctx context.Context, digest string) (*Response, bool) {
	backend := s.store.Backend()
	s.met.storeGets.WithLabelValues(backend).Inc()
	e, ok, err := s.store.Get(ctx, digest)
	if err != nil {
		s.met.storeErrors.WithLabelValues(backend).Inc()
		s.log.Warn("store get failed", "backend", backend, "key", digest, "error", err)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	resp, ok := e.Val.(*Response)
	if !ok {
		s.met.storeErrors.WithLabelValues(backend).Inc()
		s.log.Warn("store entry is not a response", "backend", backend, "key", digest)
		return nil, false
	}
	return resp, true
}

// storeUpgrade compare-and-swaps the entry for the digest: installed when
// absent or not-better, dropped when the resident entry is strictly better,
// counted as an upgrade when strictly better than the resident. It is the
// service's one write path: replace-only-with-better for every job.
func (s *Service) storeUpgrade(digest string, resp *Response, cost float64) {
	backend := s.store.Backend()
	s.met.storePuts.WithLabelValues(backend).Inc()
	pr, err := s.store.UpgradeIfBetter(context.Background(), digest, store.Entry{Cost: cost, Val: resp})
	if err != nil {
		s.met.storeErrors.WithLabelValues(backend).Inc()
		s.log.Warn("store upgrade failed", "backend", backend, "key", digest, "error", err)
		return
	}
	if pr.Upgraded {
		s.met.cacheUpgrades.Inc()
		s.met.storeUpgrades.WithLabelValues(backend).Inc()
	}
	s.met.cacheEvictions.Add(int64(pr.Evicted))
}

// Design returns the cached result for a request digest, if the store
// holds one (GET /v1/designs/{digest}). A false ok with a nil error is a
// miss; after Close it reports ErrClosed instead, so a caller can tell
// "not stored" from "shutting down". The lookup does not touch the
// admission hit/miss counters — it answers "what do you have", it does
// not admit work.
func (s *Service) Design(ctx context.Context, digest string) (*Response, bool, error) {
	if s.isClosed() {
		return nil, false, ErrClosed
	}
	resp, ok := s.storeGet(ctx, digest)
	if !ok {
		// A Close racing the read shuts the store under it; that is
		// shutdown too, not a miss.
		if s.isClosed() {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
	return resp.cached(), true, nil
}

// isClosed reports whether Close has begun.
func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}
