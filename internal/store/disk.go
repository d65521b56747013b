package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Disk is the durable content-addressed backend: one self-verifying JSON
// envelope file per digest under root/objects, an append-only index at
// root/index.log, and a Memory tier in front (read-through on Get,
// write-through on Put). Layout:
//
//	root/
//	  index.log        append-only JSONL: {"digest","cost","size"} rows,
//	                   {"digest","del":true} tombstones; last row per
//	                   digest wins. A torn tail row is ignored on open.
//	  objects/
//	    <digest>.json  {"digest","cost","sum","body"} — sum is the hex
//	                   SHA-256 of body, so every object is verifiable
//	                   without the index.
//	  quarantine/      where startup recovery moves torn or corrupt
//	                   objects instead of serving or deleting them.
//
// Writes are crash-safe: the envelope lands in a temp file, is fsynced,
// renamed into place (atomic on POSIX), and the directory is fsynced
// before the index row is appended and fsynced. Startup recovery trusts
// only entries whose index row matches the object file's size, and reads
// such an entry's cost from its object before a write first compares
// against it (the row may predate a same-size upgrade); objects
// missing from the index (a crash between rename and index append) are
// re-verified byte-for-byte and adopted, and everything else is
// quarantined. The store never overwrites a resident entry with a
// strictly costlier result — not even via Put — so the streamed-job
// replace-only-with-better invariant holds across restarts.
type Disk struct {
	mu     sync.Mutex
	root   string
	mem    *Memory
	codec  Codec
	index  *os.File
	meta   map[string]diskMeta // digest → last committed row
	bytes  int64               // total object-file bytes resident on disk
	closed bool

	// Recovered describes what startup recovery found; informational.
	Recovered RecoveryReport
}

type diskMeta struct {
	cost float64
	size int64
	// unchecked marks an entry recovery trusted by its index row and
	// object size alone. A crash between an upgrade's rename and its index
	// row leaves a newer object behind the older row, and at equal size
	// nothing tells them apart, so the cost is read from the object before
	// a write compares against it.
	unchecked bool
}

// RecoveryReport summarizes one Open's startup recovery.
type RecoveryReport struct {
	// Entries survived recovery and are servable.
	Entries int
	// Adopted objects were valid but missing from the index (a crash
	// between rename and index append) and were re-indexed.
	Adopted int
	// Quarantined objects were torn or corrupt and moved aside.
	Quarantined int
	// SkippedIndexRows counts unparseable index rows (torn tail appends,
	// corrupted lines); the rows are ignored, never trusted.
	SkippedIndexRows int
}

// indexRow is one line of index.log.
type indexRow struct {
	Digest string  `json:"digest"`
	Cost   float64 `json:"cost,omitempty"`
	Size   int64   `json:"size,omitempty"`
	Del    bool    `json:"del,omitempty"`
}

// envelope is the on-disk object format.
type envelope struct {
	Digest string          `json:"digest"`
	Cost   float64         `json:"cost"`
	Sum    string          `json:"sum"`
	Body   json.RawMessage `json:"body"`
}

// DiskOptions sizes and equips a Disk store.
type DiskOptions struct {
	// CacheEntries bounds the in-memory read-through tier (default 128).
	CacheEntries int
	// Codec translates stored values to and from the envelope body;
	// required. Encode must produce JSON — the body is embedded verbatim
	// in the envelope object.
	Codec Codec
}

// OpenDisk opens (creating if needed) the durable store rooted at root and
// runs startup recovery.
func OpenDisk(root string, opts DiskOptions) (*Disk, error) {
	if opts.Codec == nil {
		return nil, fmt.Errorf("store: disk store needs a codec")
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 128
	}
	for _, dir := range []string{root, filepath.Join(root, "objects"), filepath.Join(root, "quarantine")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	d := &Disk{
		root:  root,
		mem:   NewMemory(opts.CacheEntries),
		codec: opts.Codec,
		meta:  make(map[string]diskMeta),
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	idx, err := os.OpenFile(d.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d.index = idx
	return d, nil
}

func (d *Disk) indexPath() string           { return filepath.Join(d.root, "index.log") }
func (d *Disk) objectPath(dg string) string { return filepath.Join(d.root, "objects", dg+".json") }

// recover replays the index, verifies every referenced object by size,
// adopts valid orphans and quarantines everything torn.
func (d *Disk) recover() error {
	data, err := os.ReadFile(d.indexPath())
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	indexed := make(map[string]diskMeta)
	lines := bytes.Split(data, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) > 0 {
		// The trailing newline is a row's commit marker: a tail without
		// one is a torn append and is never parsed.
		lines = lines[:n-1]
		d.Recovered.SkippedIndexRows++
	}
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		var row indexRow
		if json.Unmarshal(line, &row) != nil || row.Digest == "" || !safeDigest(row.Digest) {
			// A torn tail append or a corrupted row: skip it. If its
			// object file is intact, the orphan scan below re-adopts it.
			d.Recovered.SkippedIndexRows++
			continue
		}
		if row.Del {
			delete(indexed, row.Digest)
			continue
		}
		indexed[row.Digest] = diskMeta{cost: row.Cost, size: row.Size}
	}
	// Trust an indexed entry only when the object file is present at the
	// recorded size; anything else is torn and goes to quarantine.
	adopt := make([]indexRow, 0)
	for digest, m := range indexed {
		fi, err := os.Stat(d.objectPath(digest))
		if err != nil || fi.Size() != m.size {
			d.quarantine(digest)
			d.Recovered.Quarantined++
			continue
		}
		m.unchecked = true
		d.meta[digest] = m
		d.bytes += m.size
	}
	// Orphan scan: objects the index does not vouch for are adopted only
	// after full byte verification against their embedded checksum.
	names, err := os.ReadDir(filepath.Join(d.root, "objects"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		digest, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || !safeDigest(digest) {
			continue
		}
		if _, known := d.meta[digest]; known {
			continue
		}
		if _, tombstoned := indexed[digest]; tombstoned {
			continue // already handled above
		}
		env, size, err := d.readObject(digest)
		if err != nil {
			d.quarantine(digest)
			d.Recovered.Quarantined++
			continue
		}
		d.meta[digest] = diskMeta{cost: env.Cost, size: size}
		d.bytes += size
		adopt = append(adopt, indexRow{Digest: digest, Cost: env.Cost, Size: size})
		d.Recovered.Adopted++
	}
	d.Recovered.Entries = len(d.meta)
	// Re-index adoptions so the next open does not need to re-verify them.
	if len(adopt) > 0 {
		idx, err := os.OpenFile(d.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		defer idx.Close()
		for _, row := range adopt {
			if err := appendRow(idx, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// readObject loads and fully verifies one envelope: parseable JSON, the
// digest matching the filename, and the body matching its checksum.
func (d *Disk) readObject(digest string) (*envelope, int64, error) {
	data, err := os.ReadFile(d.objectPath(digest))
	if err != nil {
		return nil, 0, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, 0, fmt.Errorf("store: object %s: %w", digest, err)
	}
	if env.Digest != digest {
		return nil, 0, fmt.Errorf("store: object %s names digest %s", digest, env.Digest)
	}
	if sum := bodySum(env.Body); sum != env.Sum {
		return nil, 0, fmt.Errorf("store: object %s checksum mismatch", digest)
	}
	return &env, int64(len(data)), nil
}

// check reads an unchecked entry's cost from its object and reports the
// entry, or quarantines a torn object and reports none.
func (d *Disk) check(digest string) (diskMeta, bool) {
	env, size, err := d.readObject(digest)
	if err != nil {
		d.quarantine(digest)
		return diskMeta{}, false
	}
	m := diskMeta{cost: env.Cost, size: size}
	d.meta[digest] = m
	return m, true
}

// quarantine moves a torn object aside (never deletes: the bytes may still
// be useful forensically) and forgets it.
func (d *Disk) quarantine(digest string) {
	src := d.objectPath(digest)
	if _, err := os.Stat(src); err == nil {
		os.Rename(src, filepath.Join(d.root, "quarantine", digest+".json")) //nolint:errcheck // best-effort
	}
	if m, ok := d.meta[digest]; ok {
		d.bytes -= m.size
		delete(d.meta, digest)
	}
	d.mem.Evict(digest)
}

// Backend reports "disk".
func (d *Disk) Backend() string { return "disk" }

// Get serves from the memory tier, falling back to a verified disk read
// that promotes the entry back into memory. A torn object discovered at
// read time is quarantined and reported as an error.
func (d *Disk) Get(ctx context.Context, digest string) (Entry, bool, error) {
	if e, ok, err := d.mem.Get(ctx, digest); ok || err != nil {
		return e, ok, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return Entry{}, false, ErrClosed
	}
	if _, ok := d.meta[digest]; !ok {
		return Entry{}, false, nil
	}
	env, _, err := d.readObject(digest)
	if err != nil {
		d.quarantine(digest)
		return Entry{}, false, err
	}
	val, err := d.codec.Decode(env.Body)
	if err != nil {
		d.quarantine(digest)
		return Entry{}, false, fmt.Errorf("store: decode %s: %w", digest, err)
	}
	e := Entry{Cost: env.Cost, Val: val}
	d.mem.Put(ctx, digest, e) //nolint:errcheck // volatile tier promote
	return e, true, nil
}

// Put installs e durably unless the resident entry is strictly better:
// the durable tier refuses downgrades even on the unconditional-put path,
// so a restart can never resurrect a costlier result over a better one.
func (d *Disk) Put(ctx context.Context, digest string, e Entry) (PutResult, error) {
	return d.write(ctx, digest, e, false)
}

// UpgradeIfBetter installs e only when absent or not worse than resident.
func (d *Disk) UpgradeIfBetter(ctx context.Context, digest string, e Entry) (PutResult, error) {
	return d.write(ctx, digest, e, true)
}

func (d *Disk) write(ctx context.Context, digest string, e Entry, upgrade bool) (PutResult, error) {
	if !safeDigest(digest) {
		return PutResult{}, fmt.Errorf("store: unsafe digest %q", digest)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return PutResult{}, ErrClosed
	}
	cur, existed := d.meta[digest]
	if existed && cur.unchecked {
		cur, existed = d.check(digest)
	}
	if existed && worse(e.Cost, cur.cost) {
		return PutResult{}, nil // never downgrade a durable entry
	}
	body, err := d.codec.Encode(e.Val)
	if err != nil {
		return PutResult{}, fmt.Errorf("store: encode %s: %w", digest, err)
	}
	env := envelope{Digest: digest, Cost: e.Cost, Sum: bodySum(body), Body: body}
	data, err := json.Marshal(env)
	if err != nil {
		return PutResult{}, fmt.Errorf("store: %w", err)
	}
	if err := d.writeObject(digest, data); err != nil {
		return PutResult{}, err
	}
	if err := appendRow(d.index, indexRow{Digest: digest, Cost: e.Cost, Size: int64(len(data))}); err != nil {
		return PutResult{}, err
	}
	if existed {
		d.bytes -= cur.size
	}
	d.meta[digest] = diskMeta{cost: e.Cost, size: int64(len(data))}
	d.bytes += int64(len(data))
	pr, _ := d.mem.Put(ctx, digest, e)
	pr.Upgraded = upgrade && existed && better(e.Cost, cur.cost)
	return pr, nil
}

// writeObject lands data at the object path crash-safely: temp file,
// fsync, atomic rename, directory fsync.
func (d *Disk) writeObject(digest string, data []byte) error {
	dir := filepath.Join(d.root, "objects")
	tmp, err := os.CreateTemp(dir, "."+digest+".tmp-")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.objectPath(digest)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// Evict removes the digest from both tiers and tombstones it in the index.
func (d *Disk) Evict(digest string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	m, ok := d.meta[digest]
	if !ok {
		return false
	}
	delete(d.meta, digest)
	d.bytes -= m.size
	d.mem.Evict(digest)
	os.Remove(d.objectPath(digest))                         //nolint:errcheck // tombstone row is authoritative
	appendRow(d.index, indexRow{Digest: digest, Del: true}) //nolint:errcheck // best-effort
	return true
}

// Len counts durable entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.meta)
}

// Bytes reports the object-file bytes resident on disk (the
// noc_store_disk_bytes gauge).
func (d *Disk) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Close fsyncs and closes the index; further operations fail.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.mem.Close() //nolint:errcheck // always nil
	if err := d.index.Sync(); err != nil {
		d.index.Close()
		return fmt.Errorf("store: %w", err)
	}
	return d.index.Close()
}

// appendRow writes one index row and fsyncs it; the trailing newline is
// the row's commit marker (a torn append is skipped on recovery).
func appendRow(f *os.File, row indexRow) error {
	data, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func bodySum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// safeDigest accepts only digests that are safe as file names: the hex
// SHA-256 keys the service computes, and nothing that could traverse
// directories.
func safeDigest(digest string) bool {
	if len(digest) == 0 || len(digest) > 128 {
		return false
	}
	for _, c := range digest {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}
