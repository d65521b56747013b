package main

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nocmap/internal/service"
)

func TestBodiesAreDeterministicPerSeed(t *testing.T) {
	a, err := newPool()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPool()
	if err != nil {
		t.Fatal(err)
	}
	const cycle, n = 40, 100
	gen := func(p *pool, seed int64) []string {
		body := p.opBodies(seed, cycle, "cold", greedySuffix)
		var out []string
		for i := range n {
			out = append(out, string(body(i)))
		}
		return out
	}
	one, again, other := gen(a, 1), gen(b, 1), gen(a, 2)
	for i := range one {
		if one[i] != again[i] {
			t.Fatalf("op %d: the same seed gave different bodies", i)
		}
		var mr service.MapRequest
		if err := json.Unmarshal([]byte(one[i]), &mr); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		req, err := mr.ToRequest()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if k := len(req.Design.UseCases); k < minUseCases || k > familySize {
			t.Errorf("op %d carries %d use-cases", i, k)
		}
	}
	// Every cycle is the same designs under both seeds, in another order
	// from cycle to cycle and from seed to seed; the names make every body
	// of a run distinct.
	designs := func(bodies []string, lo int) []string {
		var out []string
		for i, b := range bodies[lo : lo+cycle] {
			out = append(out, strings.Replace(b, `"name":"cold-`+strconv.Itoa(lo+i)+`"`, "", 1))
		}
		return out
	}
	if slices.Equal(one, other) || slices.Equal(designs(one, 0), designs(one, cycle)) {
		t.Error("the order of the designs does not change with the seed and the cycle")
	}
	want := slices.Sorted(slices.Values(designs(one, 0)))
	for _, c := range []struct {
		bodies []string
		lo     int
	}{{one, cycle}, {other, 0}, {other, cycle}} {
		if got := slices.Sorted(slices.Values(designs(c.bodies, c.lo))); !slices.Equal(got, want) {
			t.Errorf("the cycle at op %d carries other designs", c.lo)
		}
	}
	seen := map[string]bool{}
	for _, b := range one {
		if seen[b] {
			t.Fatal("a run sent the same body twice")
		}
		seen[b] = true
	}
}

func TestZipfWorkingSet(t *testing.T) {
	const entries, tier = 512, 128
	ranks := zipfRanks(5, 20000, entries)
	counts := make([]int, entries)
	for _, r := range ranks {
		if r < 0 || r >= entries {
			t.Fatalf("rank %d outside the working set", r)
		}
		counts[r]++
	}
	distinct := 0
	for _, c := range counts {
		if c > 0 {
			distinct++
		}
	}
	// The reads must reach well past the memory tier, so hits come from
	// disk too, while the head stays hot.
	if distinct < 2*tier {
		t.Errorf("%d distinct entries read, want at least %d", distinct, 2*tier)
	}
	for r := 1; r < entries; r++ {
		if counts[r] > counts[0] {
			t.Fatalf("rank %d read %d times, more than rank 0's %d", r, counts[r], counts[0])
		}
	}
	again := zipfRanks(5, 20000, entries)
	for i := range ranks {
		if ranks[i] != again[i] {
			t.Fatal("the same seed drew a different sequence")
		}
	}
}
