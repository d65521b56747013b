package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// payload is the test value type; the codec below round-trips it as JSON,
// the way the service round-trips Response envelopes.
type payload struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

type payloadCodec struct{}

func (payloadCodec) Encode(val any) ([]byte, error) { return json.Marshal(val) }
func (payloadCodec) Decode(data []byte) (any, error) {
	var p payload
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

func openDisk(t *testing.T, root string) *Disk {
	t.Helper()
	d, err := OpenDisk(root, DiskOptions{Codec: payloadCodec{}, CacheEntries: 4})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return d
}

// digestN returns a filename-safe fake digest.
func digestN(i int) string { return fmt.Sprintf("%064x", i) }

func TestDiskPutGetSurvivesReopen(t *testing.T) {
	root := t.TempDir()
	d := openDisk(t, root)
	mustPut(t, d, digestN(1), 5, &payload{Name: "one", N: 1})
	mustPut(t, d, digestN(2), 7, &payload{Name: "two", N: 2})
	if d.Len() != 2 {
		t.Fatalf("len = %d, want 2", d.Len())
	}
	if d.Bytes() <= 0 {
		t.Fatalf("bytes gauge = %d, want > 0", d.Bytes())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDisk(t, root)
	defer d2.Close()
	if d2.Recovered.Entries != 2 || d2.Recovered.Quarantined != 0 {
		t.Fatalf("recovery = %+v, want 2 clean entries", d2.Recovered)
	}
	e, ok := mustGet(t, d2, digestN(1))
	if !ok {
		t.Fatal("entry 1 lost across reopen")
	}
	p := e.Val.(*payload)
	if p.Name != "one" || p.N != 1 || e.Cost != 5 {
		t.Errorf("entry 1 round-trip = %+v cost=%v", p, e.Cost)
	}
	// Second Get is served from the promoted memory tier: same value.
	if e2, ok := mustGet(t, d2, digestN(1)); !ok || e2.Val.(*payload).Name != "one" {
		t.Error("memory-tier promote lost the entry")
	}
}

func TestDiskNeverDowngradesEvenAcrossRestart(t *testing.T) {
	root := t.TempDir()
	d := openDisk(t, root)
	mustPut(t, d, digestN(1), 5, &payload{Name: "good"})
	// A costlier plain Put on the live store is refused.
	if pr := mustPut(t, d, digestN(1), 9, &payload{Name: "bad"}); pr.Installed {
		t.Fatal("costlier Put overwrote a better durable entry")
	}
	d.Close()

	// The invariant holds across restart: the memory tier is gone but the
	// durable cost survives the reopen.
	d2 := openDisk(t, root)
	defer d2.Close()
	if pr := mustPut(t, d2, digestN(1), 9, &payload{Name: "bad"}); pr.Installed {
		t.Fatal("costlier Put overwrote a better entry after restart")
	}
	pr, err := d2.UpgradeIfBetter(ctx, digestN(1), Entry{Cost: 9, Val: &payload{Name: "bad"}})
	if err != nil || pr.Installed {
		t.Fatalf("costlier UpgradeIfBetter installed after restart: %+v, %v", pr, err)
	}
	if e, ok := mustGet(t, d2, digestN(1)); !ok || e.Val.(*payload).Name != "good" {
		t.Fatalf("resident entry corrupted: %+v", e)
	}
	// A strictly better result still upgrades, and the upgrade is durable.
	pr, err = d2.UpgradeIfBetter(ctx, digestN(1), Entry{Cost: 3, Val: &payload{Name: "best"}})
	if err != nil || !pr.Installed || !pr.Upgraded {
		t.Fatalf("better UpgradeIfBetter = %+v, %v", pr, err)
	}
	d2.Close()
	d3 := openDisk(t, root)
	defer d3.Close()
	if e, ok := mustGet(t, d3, digestN(1)); !ok || e.Cost != 3 || e.Val.(*payload).Name != "best" {
		t.Fatalf("upgrade not durable: %+v ok=%v", e, ok)
	}
}

// TestDiskCrashRecovery tears a store on disk and reopens it. First one
// object file is truncated mid-body and another entry's index row is
// corrupted: the reopened store must serve the clean entries, quarantine
// the torn one, and accept a fresh Put of the same digest. Then every
// object file and the index are truncated at every byte offset in turn
// (see crashSweep).
func TestDiskCrashRecovery(t *testing.T) {
	t.Run("sweep", crashSweep)

	root := t.TempDir()
	d := openDisk(t, root)
	for i := 1; i <= 4; i++ {
		mustPut(t, d, digestN(i), float64(i), &payload{Name: "entry", N: i})
	}
	d.Close()

	// Tear entry 2: truncate its object file mid-way.
	torn := filepath.Join(root, "objects", digestN(2)+".json")
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	// Corrupt entry 3's index row (flip its line into garbage of the same
	// length, so only that row is damaged).
	idxPath := filepath.Join(root, "index.log")
	idx, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(idx), "\n")
	found := false
	for i, line := range lines {
		if strings.Contains(line, digestN(3)) {
			lines[i] = strings.Repeat("#", len(line))
			found = true
		}
	}
	if !found {
		t.Fatalf("no index row for %s in:\n%s", digestN(3), idx)
	}
	if err := os.WriteFile(idxPath, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openDisk(t, root)
	defer d2.Close()
	// Clean entries survive; entry 3's valid object is re-adopted despite
	// its corrupt index row; the torn object is quarantined, not served.
	for _, i := range []int{1, 3, 4} {
		e, ok := mustGet(t, d2, digestN(i))
		if !ok {
			t.Fatalf("clean entry %d lost in recovery (report %+v)", i, d2.Recovered)
		}
		if p := e.Val.(*payload); p.N != i {
			t.Errorf("entry %d decoded as %+v", i, p)
		}
	}
	if _, ok := mustGet(t, d2, digestN(2)); ok {
		t.Fatal("torn entry served after recovery")
	}
	if d2.Recovered.Quarantined != 1 || d2.Recovered.Adopted != 1 || d2.Recovered.SkippedIndexRows == 0 {
		t.Errorf("recovery report = %+v, want 1 quarantined, 1 adopted, >0 skipped rows", d2.Recovered)
	}
	if _, err := os.Stat(filepath.Join(root, "quarantine", digestN(2)+".json")); err != nil {
		t.Errorf("torn object not in quarantine: %v", err)
	}
	// A fresh Put of the torn digest succeeds and is durable again.
	if pr := mustPut(t, d2, digestN(2), 2, &payload{Name: "entry", N: 2}); !pr.Installed {
		t.Fatal("re-Put of quarantined digest refused")
	}
	if e, ok := mustGet(t, d2, digestN(2)); !ok || e.Val.(*payload).N != 2 {
		t.Fatalf("re-Put entry unreadable: %+v ok=%v", e, ok)
	}
	d2.Close()
	d3 := openDisk(t, root)
	defer d3.Close()
	if e, ok := mustGet(t, d3, digestN(2)); !ok || e.Val.(*payload).N != 2 {
		t.Fatal("re-Put entry not durable")
	}
}

// crashSweep builds a store that saw puts, a same-size upgrade and an
// eviction, then truncates one of its files — each object file and the
// index in turn — at every byte offset and reopens it. Recovery must serve
// each digest as one of the versions written for it, cost and value, or
// not at all; never torn bytes. And the store must still refuse to replace
// a served entry with a costlier one: recovery may not remember a cost the
// served object does not carry.
func crashSweep(t *testing.T) {
	type version struct {
		cost float64
		val  payload
	}
	// The upgrade of entry 1 keeps the object's size, so only its cost and
	// body tell the two versions apart.
	written := map[string][]version{
		digestN(1): {{5, payload{Name: "v1", N: 1}}, {3, payload{Name: "v2", N: 1}}},
		digestN(2): {{7, payload{Name: "v1", N: 2}}},
		digestN(3): {{4, payload{Name: "v1", N: 3}}},
		digestN(4): {{6, payload{Name: "v1", N: 4}}},
	}
	root := t.TempDir()
	d := openDisk(t, root)
	for _, i := range []int{1, 2, 3, 4} {
		v := written[digestN(i)][0]
		mustPut(t, d, digestN(i), v.cost, &v.val)
	}
	up := written[digestN(1)][1]
	if pr, err := d.UpgradeIfBetter(ctx, digestN(1), Entry{Cost: up.cost, Val: &up.val}); err != nil || !pr.Installed {
		t.Fatalf("upgrade: %+v, %v", pr, err)
	}
	if !d.Evict(digestN(3)) {
		t.Fatal("evict reported false")
	}
	d.Close()
	files := map[string][]byte{}
	var targets []string
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		data, err := os.ReadFile(path)
		files[rel] = data
		targets = append(targets, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 4 { // index.log and the objects of entries 1, 2 and 4
		t.Fatalf("store files %v, want the index and three objects", targets)
	}

	work := t.TempDir()
	for _, target := range targets {
		for cut := range len(files[target]) {
			dir := filepath.Join(work, fmt.Sprintf("%d", cut))
			for rel, data := range files {
				if rel == target {
					data = data[:cut]
				}
				if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			d := openDisk(t, dir)
			for digest, versions := range written {
				e, ok, err := d.Get(ctx, digest)
				if err != nil {
					t.Fatalf("%s cut at %d: Get(%s): %v", target, cut, digest, err)
				}
				if !ok {
					continue
				}
				p := *e.Val.(*payload)
				if !slices.Contains(versions, version{e.Cost, p}) {
					t.Fatalf("%s cut at %d: %s served as cost %v %+v, never written", target, cut, digest, e.Cost, p)
				}
				worse := payload{Name: "worse", N: p.N}
				if pr := mustPut(t, d, digest, e.Cost+1, &worse); pr.Installed {
					t.Fatalf("%s cut at %d: %s served at cost %v, then replaced by cost %v", target, cut, digest, e.Cost, e.Cost+1)
				}
			}
			d.Close()
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDiskTornIndexTailIgnored(t *testing.T) {
	root := t.TempDir()
	d := openDisk(t, root)
	mustPut(t, d, digestN(1), 1, &payload{N: 1})
	d.Close()
	// Simulate a crash mid-append: a partial row with no newline commit.
	idx, err := os.OpenFile(filepath.Join(root, "index.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteString(`{"digest":"feedface","cost":`); err != nil {
		t.Fatal(err)
	}
	idx.Close()

	d2 := openDisk(t, root)
	defer d2.Close()
	if d2.Recovered.SkippedIndexRows != 1 || d2.Recovered.Entries != 1 {
		t.Fatalf("recovery = %+v, want 1 entry + 1 skipped torn row", d2.Recovered)
	}
	if _, ok := mustGet(t, d2, digestN(1)); !ok {
		t.Fatal("entry lost to a torn index tail")
	}
}

func TestDiskEvictTombstoneSurvivesReopen(t *testing.T) {
	root := t.TempDir()
	d := openDisk(t, root)
	mustPut(t, d, digestN(1), 1, &payload{N: 1})
	if !d.Evict(digestN(1)) {
		t.Fatal("evict reported false")
	}
	if d.Len() != 0 {
		t.Fatalf("len after evict = %d", d.Len())
	}
	d.Close()
	d2 := openDisk(t, root)
	defer d2.Close()
	if _, ok := mustGet(t, d2, digestN(1)); ok {
		t.Fatal("evicted entry resurrected on reopen")
	}
}

func TestDiskRejectsUnsafeDigests(t *testing.T) {
	d := openDisk(t, t.TempDir())
	defer d.Close()
	for _, bad := range []string{"", "../../etc/passwd", "a/b", "a b", strings.Repeat("x", 200)} {
		if _, err := d.Put(ctx, bad, Entry{Val: &payload{}}); err == nil {
			t.Errorf("Put accepted unsafe digest %q", bad)
		}
	}
}
