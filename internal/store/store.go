// Package store is the result-store layer of the serving stack: a pluggable
// keyed store of mapped-design results, content-addressed by the canonical
// request digest the service computes (see service.Request.Key). Two
// backends implement one Store interface:
//
//   - Memory — the fixed-capacity LRU the service has always had, now
//     behind the interface with behavior unchanged. Volatile: a restart
//     forgets everything.
//   - Disk — a stdlib-only durable content-addressed store: one JSON
//     envelope file per digest under a root directory, written with
//     atomic rename + fsync, tracked by an append-only index, recovered
//     on startup with torn entries quarantined rather than trusted. A
//     Memory tier in front makes reads hot (read-through) and writes
//     safe (write-through).
//
// The replace-only-with-better invariant of the serve-then-improve stream
// is carried by the interface: UpgradeIfBetter installs an entry only when
// it is absent or not worse than the resident one, and the durable backend
// additionally refuses plain Puts that would overwrite a strictly better
// entry — a mapped design never regresses, even across a restart.
//
// The package is deliberately free of service types: entries carry an
// opaque value plus its scalar cost, and byte-oriented tiers (disk)
// translate through a caller-supplied Codec.
package store

import (
	"context"
	"fmt"
)

// CostEps is the one strict-improvement tolerance of every cost
// comparison: the store's, the search engines' incumbent tests and the
// service's stream read it. Costs within CostEps are ties, and a tie may
// replace the resident entry (the final result of a streamed run wins ties
// so the stored envelope carries its timings).
const CostEps = 1e-12

// Entry is one stored result: an opaque value scored by the scalar cost
// the engines minimize. Byte-oriented tiers encode Val with their Codec.
type Entry struct {
	// Cost orders entries for the replace-only-with-better invariant;
	// lower is better.
	Cost float64
	// Val is the stored value. The service stores *service.Response.
	Val any
}

// PutResult reports what a write did.
type PutResult struct {
	// Installed is true when the entry is resident after the call (newly
	// inserted, refreshed, or a tie/better replacement).
	Installed bool
	// Upgraded is true when the write replaced an existing entry with a
	// strictly better one (cost lower by more than CostEps).
	Upgraded bool
	// Evicted counts older entries dropped from a capacity-bounded tier
	// to make room.
	Evicted int
}

// Store is the pluggable result store. Implementations are self-locking:
// every method is safe for concurrent use, and callers must not wrap calls
// in their own store-wide critical sections (the disk backend does I/O
// inside).
type Store interface {
	// Backend names the implementation ("memory", "disk") for
	// stats and metric labels.
	Backend() string
	// Get returns the resident entry for digest. A false ok with a nil
	// error is a clean miss; an error reports a failed read (a quarantined
	// torn entry) that callers should treat as a miss
	// and count.
	Get(ctx context.Context, digest string) (Entry, bool, error)
	// Put installs e. Volatile tiers overwrite unconditionally; durable
	// tiers refuse to replace a strictly better resident entry (Installed
	// false) so a restart never resurrects a costlier result.
	Put(ctx context.Context, digest string, e Entry) (PutResult, error)
	// UpgradeIfBetter installs e only when the digest is absent or e is
	// not worse than the resident entry (ties replace); the compare-and-
	// swap is atomic with respect to concurrent writers.
	UpgradeIfBetter(ctx context.Context, digest string, e Entry) (PutResult, error)
	// Evict removes the digest from every tier this store owns and
	// reports whether an entry was removed.
	Evict(digest string) bool
	// Len counts resident entries (the durable count for tiered stores).
	Len() int
	// Close releases the store; reads and writes after Close fail.
	Close() error
}

// Codec translates stored values to and from bytes for byte-oriented
// tiers. Encode/Decode must round-trip: Decode(Encode(v)) is equivalent
// to v for every value the caller stores.
type Codec interface {
	Encode(val any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = fmt.Errorf("store: closed")

// better reports whether cost a strictly beats b (by more than CostEps).
func better(a, b float64) bool { return a < b-CostEps }

// worse reports whether cost a is strictly worse than b.
func worse(a, b float64) bool { return a > b+CostEps }
