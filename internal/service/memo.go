package service

import (
	"context"
	"crypto/sha256"
	"hash/maphash"
	"sync"
)

// The request memo answers a repeated POST /v1/map body from its bytes,
// before the decode, the conversion to a Request and the key digest run.
// Each of those steps is a pure function of the body bytes, so a body that
// once passed them all maps to one request key for good, and admission's
// lookup of that key gives the answer the full path would give: the same
// stored bytes, or the same live flight to join.
//
// An entry is written only for a sync body that passed the full path and
// was then answered from the store, so a body must prove itself a repeat
// before it costs a SHA-256; a never-seen body costs one maphash. Stream,
// async and rejected bodies never get an entry.

// memoEntries bounds the memo: about 130 B an entry, about 2 MB in all.
const memoEntries = 1 << 14

// bodyHash picks a body's memo entry. Tests swap it to make bodies collide;
// the SHA-256 in the entry settles every collision.
var bodyHash = maphash.Bytes

// memoEntry is the request key of one body, and the SHA-256 of the body
// that confirms a candidate found by its hash.
type memoEntry struct {
	sum [sha256.Size]byte
	key string
}

// requestMemo is a bounded map from a body's hash to its request key. It
// is self-locking.
type requestMemo struct {
	seed maphash.Seed

	mu      sync.Mutex
	entries map[uint64]memoEntry
}

func newRequestMemo() *requestMemo {
	return &requestMemo{seed: maphash.MakeSeed(), entries: make(map[uint64]memoEntry)}
}

// hash is the body's memo hash.
func (m *requestMemo) hash(body []byte) uint64 { return bodyHash(m.seed, body) }

// key returns the request key memoized for body, whose hash is h.
func (m *requestMemo) key(h uint64, body []byte) (string, bool) {
	m.mu.Lock()
	e, ok := m.entries[h]
	m.mu.Unlock()
	if !ok || e.sum != sha256.Sum256(body) {
		return "", false
	}
	return e.key, true
}

// put memoizes key for body, whose hash is h. A full memo drops an
// arbitrary entry, and a body whose hash collides with an entry's replaces
// it.
func (m *requestMemo) put(h uint64, body []byte, key string) {
	e := memoEntry{sum: sha256.Sum256(body), key: key}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[h]; !ok && len(m.entries) >= memoEntries {
		for old := range m.entries {
			delete(m.entries, old)
			break
		}
	}
	m.entries[h] = e
}

// mapRepeat answers a POST /v1/map body the memo holds, through admission's
// lookup of its key: a live run of the key is joined, else a stored answer
// is served as a hit. It reports false when the memo does not hold the
// body, or holds it but its key is neither running nor stored (the store
// evicted it), or the service is closing: the caller then runs the full
// path on the same bytes.
func (s *Service) mapRepeat(ctx context.Context, h uint64, body []byte) (*Response, bool, error) {
	key, ok := s.memo.key(h, body)
	if !ok {
		return nil, false, nil
	}
	f, resp, err := s.lookup(ctx, key)
	if err != nil {
		return nil, false, nil
	}
	switch {
	case f != nil:
		s.met.dedupJoins.Inc()
	case resp != nil:
		s.met.cacheHits.Inc()
	default:
		s.mu.Unlock()
		return nil, false, nil
	}
	s.met.memoHits.Inc()
	s.mu.Unlock()
	s.log.Debug("memo hit", "request_id", RequestIDFrom(ctx), "key", key, "joined", f != nil)
	if f != nil {
		resp, err = s.await(ctx, f)
		return resp, true, err
	}
	return resp.cached(), true, nil
}
