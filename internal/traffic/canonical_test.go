package traffic

import (
	"bytes"
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

func TestCanonicalizePreservesMeaning(t *testing.T) {
	a, b := digestPair()
	ca, cb := a.Canonicalize(), b.Canonicalize()
	if err := ca.Validate(); err != nil {
		t.Fatalf("canonical form invalid: %v", err)
	}
	// Canonical forms of the two permutations must be structurally equal.
	wa, wb := appendCanonical(nil, ca), appendCanonical(nil, cb)
	if string(wa) != string(wb) {
		t.Errorf("canonical encodings differ:\n%s\nvs\n%s", wa, wb)
	}
	// Canonicalize must not mutate its receiver.
	if a.UseCases[0].Name != "alpha" || a.UseCases[0].Flows[0].Src != 0 {
		t.Error("Canonicalize mutated the original design")
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
	if c := mk("torus").Canonicalize(); c.Topology != "torus" {
		t.Errorf("canonical topology tag = %q, want torus", c.Topology)
	}
	if c := mk("").Canonicalize(); c.Topology != "mesh" {
		t.Errorf("canonical empty tag = %q, want mesh", c.Topology)
	}
}
