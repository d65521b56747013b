package traffic

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// shuffledDesign builds the same logical design twice: once in natural order
// and once with use-cases, flows and declarations permuted (with indices
// re-pointed so the permuted design means the same thing).
func digestPair() (*Design, *Design) {
	a := &Design{
		Name:  "demo",
		Cores: MakeCores(4),
		UseCases: []*UseCase{
			{Name: "alpha", Flows: []Flow{
				{Src: 0, Dst: 1, BandwidthMBs: 100, MaxLatencyNS: 500},
				{Src: 2, Dst: 3, BandwidthMBs: 50},
			}},
			{Name: "beta", Flows: []Flow{
				{Src: 1, Dst: 0, BandwidthMBs: 75},
			}},
			{Name: "gamma", Flows: []Flow{
				{Src: 3, Dst: 0, BandwidthMBs: 25},
			}},
		},
		ParallelSets: [][]int{{0, 1}},
		SmoothPairs:  [][2]int{{1, 2}},
	}
	// Same design: use-cases listed gamma, beta, alpha; flows of "alpha"
	// reversed; the parallel set and smooth pair re-pointed accordingly and
	// written in the opposite member order.
	b := &Design{
		Name:  "demo",
		Cores: MakeCores(4),
		UseCases: []*UseCase{
			{Name: "gamma", Flows: []Flow{
				{Src: 3, Dst: 0, BandwidthMBs: 25},
			}},
			{Name: "beta", Flows: []Flow{
				{Src: 1, Dst: 0, BandwidthMBs: 75},
			}},
			{Name: "alpha", Flows: []Flow{
				{Src: 2, Dst: 3, BandwidthMBs: 50},
				{Src: 0, Dst: 1, BandwidthMBs: 100, MaxLatencyNS: 500},
			}},
		},
		ParallelSets: [][]int{{1, 2}},
		SmoothPairs:  [][2]int{{1, 0}},
	}
	return a, b
}

func TestDigestInvariantUnderReordering(t *testing.T) {
	a, b := digestPair()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if da, db := a.Digest(), b.Digest(); da != db {
		t.Errorf("permuted designs digest differently:\n a %s\n b %s", da, db)
	}
}

func TestDigestInvariantUnderJSONRoundTrip(t *testing.T) {
	a, _ := digestPair()
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != back.Digest() {
		t.Error("JSON round-trip changed the digest")
	}
}

func TestDigestSensitivity(t *testing.T) {
	base, _ := digestPair()
	d0 := base.Digest()

	mutations := map[string]func(*Design){
		"bandwidth": func(d *Design) { d.UseCases[0].Flows[0].BandwidthMBs += 1e-9 },
		"latency":   func(d *Design) { d.UseCases[0].Flows[0].MaxLatencyNS = 501 },
		"endpoint":  func(d *Design) { d.UseCases[1].Flows[0].Dst = 2 },
		"name":      func(d *Design) { d.Name = "demo2" },
		"core name": func(d *Design) { d.Cores[0].Name = "renamed" },
		"uc name":   func(d *Design) { d.UseCases[2].Name = "delta" },
		"parallel":  func(d *Design) { d.ParallelSets = [][]int{{0, 2}} },
		"smooth":    func(d *Design) { d.SmoothPairs = nil },
		"add flow": func(d *Design) {
			d.UseCases[1].Flows = append(d.UseCases[1].Flows, Flow{Src: 2, Dst: 0, BandwidthMBs: 1})
		},
	}
	for what, mutate := range mutations {
		d, _ := digestPair()
		mutate(d)
		if d.Digest() == d0 {
			t.Errorf("%s change did not change the digest", what)
		}
	}
}

// canonicalReference is the canonical form the digest once encoded: a deep
// copy of the design with use-cases sorted by name (parallel sets and
// smooth pairs re-indexed to follow), flows sorted by (src, dst), part
// lists sorted, parallel sets sorted within and among themselves, smooth
// pairs normalized to (low, high) and sorted, and an empty topology tag
// written as "mesh". appendCanonical writes the same bytes from sorted
// permutations of the original.
func canonicalReference(d *Design) *Design {
	out := &Design{Name: d.Name, Topology: d.Topology}
	if out.Topology == "" {
		out.Topology = "mesh"
	}
	out.Cores = append([]Core(nil), d.Cores...)
	perm := make([]int, len(d.UseCases))
	order := make([]int, len(d.UseCases))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(d.UseCases[a].Name, d.UseCases[b].Name)
	})
	for newIdx, oldIdx := range order {
		perm[oldIdx] = newIdx
		u := d.UseCases[oldIdx].Clone()
		slices.SortFunc(u.Flows, func(a, b Flow) int {
			return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
		})
		slices.Sort(u.Parts)
		out.UseCases = append(out.UseCases, u)
	}
	for _, set := range d.ParallelSets {
		ns := make([]int, len(set))
		for i, idx := range set {
			ns[i] = perm[idx]
		}
		slices.Sort(ns)
		out.ParallelSets = append(out.ParallelSets, ns)
	}
	slices.SortFunc(out.ParallelSets, slices.Compare)
	for _, p := range d.SmoothPairs {
		a, b := perm[p[0]], perm[p[1]]
		if a > b {
			a, b = b, a
		}
		out.SmoothPairs = append(out.SmoothPairs, [2]int{a, b})
	}
	slices.SortFunc(out.SmoothPairs, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return out
}

// TestCanonicalMatchesReference: the encoding written through permutations
// equals the encoding of the sorted copy, on both orders of the digest
// pair, and writing it leaves the design untouched.
func TestCanonicalMatchesReference(t *testing.T) {
	a, b := digestPair()
	want := string(appendCanonical(nil, canonicalReference(a)))
	for name, d := range map[string]*Design{"a": a, "b": b} {
		if got := string(appendCanonical(nil, d)); got != want {
			t.Errorf("%s: canonical encoding\n%s\nwant\n%s", name, got, want)
		}
	}
	if a.UseCases[0].Name != "alpha" || a.UseCases[0].Flows[0].Src != 0 {
		t.Error("appendCanonical mutated the design")
	}
}

// The topology tag is part of the design's meaning: identical traffic on
// different fabrics must digest differently, while the empty tag and the
// explicit "mesh" tag are the same fabric and must digest identically.
func TestDigestDistinguishesTopologies(t *testing.T) {
	mk := func(tag string) *Design {
		d, _ := digestPair()
		d.Topology = tag
		return d
	}
	mesh := mk("").Digest()
	if got := mk("mesh").Digest(); got != mesh {
		t.Errorf("empty and explicit mesh tags digest differently: %s vs %s", got, mesh)
	}
	torus := mk("torus").Digest()
	if torus == mesh {
		t.Error("mesh and torus designs share a digest")
	}
	if err := mk("custom:deadbeef12345678").Validate(); err == nil || !strings.Contains(err.Error(), "want mesh, torus") {
		t.Errorf("custom fabric tag: Validate() = %v, want an error listing mesh, torus", err)
	}
	if c := string(appendCanonical(nil, mk("torus"))); !strings.Contains(c, "\ntopology \"torus\"\n") {
		t.Errorf("canonical form of a torus design does not carry its tag:\n%s", c)
	}
	if c := string(appendCanonical(nil, mk(""))); !strings.Contains(c, "\ntopology \"mesh\"\n") {
		t.Errorf("canonical form of an untagged design is not tagged mesh:\n%s", c)
	}
}

// TestPairOrder: both forms of pairOrder — one packed word per flow for
// small core IDs, a comparison sort past 2^21 — list the flows in (src,
// dst) order with repeated pairs in flow order.
func TestPairOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, ids := range []int{8, 1 << 30} {
		flows := make([]Flow, 300)
		for i := range flows {
			flows[i] = Flow{Src: CoreID(rng.Intn(ids)), Dst: CoreID(rng.Intn(ids))}
		}
		flows[299], flows[150] = flows[3], flows[3]
		want := make([]int32, len(flows))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			return cmp.Or(cmp.Compare(flows[a].Src, flows[b].Src), cmp.Compare(flows[a].Dst, flows[b].Dst))
		})
		got := pairOrder(flows, make([]uint64, len(flows)), make([]int32, len(flows)))
		if !slices.Equal(got, want) {
			t.Errorf("core IDs below %d: pairOrder = %v, want %v", ids, got, want)
		}
	}
}
