package topology

import (
	"nocmap/internal/graph"

	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMeshCounts(t *testing.T) {
	cases := []struct {
		rows, cols      int
		switches, links int
	}{
		{1, 1, 1, 0},
		{1, 2, 2, 2},
		{2, 2, 4, 8},
		{2, 3, 6, 14},
		{3, 3, 9, 24},
		{4, 5, 20, 62},
	}
	for _, tc := range cases {
		m, err := NewMesh(tc.rows, tc.cols, 4)
		if err != nil {
			t.Fatalf("NewMesh(%d,%d): %v", tc.rows, tc.cols, err)
		}
		if m.NumSwitches() != tc.switches {
			t.Errorf("%dx%d switches = %d, want %d", tc.rows, tc.cols, m.NumSwitches(), tc.switches)
		}
		// Directed links: 2 * (rows*(cols-1) + cols*(rows-1)).
		if m.NumLinks() != tc.links {
			t.Errorf("%dx%d links = %d, want %d", tc.rows, tc.cols, m.NumLinks(), tc.links)
		}
	}
}

func TestNewMeshRejects(t *testing.T) {
	if _, err := NewMesh(0, 3, 4); err == nil {
		t.Error("0 rows accepted")
	}
	if _, err := NewMesh(3, -1, 4); err == nil {
		t.Error("negative cols accepted")
	}
	if _, err := NewMesh(2, 2, 0); err == nil {
		t.Error("0 cores per switch accepted")
	}
}

func TestAtCoordRoundTrip(t *testing.T) {
	m, err := NewMesh(3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 5; c++ {
			s := m.At(r, c)
			gr, gc := m.Coord(s)
			if gr != r || gc != c {
				t.Errorf("Coord(At(%d,%d)) = (%d,%d)", r, c, gr, gc)
			}
		}
	}
}

func TestMeshAdjacency(t *testing.T) {
	m, err := NewMesh(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Corner switch (0,0) has 2 neighbours.
	if d := m.Degree(m.At(0, 0)); d != 2 {
		t.Errorf("corner degree = %d, want 2", d)
	}
	if _, ok := m.FindLink(m.At(0, 0), m.At(0, 1)); !ok {
		t.Error("link (0,0)->(0,1) missing")
	}
	if _, ok := m.FindLink(m.At(0, 0), m.At(1, 1)); ok {
		t.Error("diagonal link should not exist")
	}
	// Every link has an opposing twin.
	for _, l := range m.Links() {
		if _, ok := m.FindLink(l.To, l.From); !ok {
			t.Errorf("link %d->%d has no reverse", l.From, l.To)
		}
	}
}

func TestMeshInteriorDegree(t *testing.T) {
	m, err := NewMesh(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Degree(m.At(1, 1)); d != 4 {
		t.Errorf("interior degree = %d, want 4", d)
	}
}

func TestHopDistanceMesh(t *testing.T) {
	m, err := NewMesh(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.HopDistance(m.At(0, 0), m.At(3, 3)); d != 6 {
		t.Errorf("corner-to-corner = %d, want 6", d)
	}
	if d := m.HopDistance(m.At(2, 2), m.At(2, 2)); d != 0 {
		t.Errorf("self distance = %d", d)
	}
}

func TestTorus(t *testing.T) {
	tor, err := NewTorus(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Torus 3x3: every switch has degree 4.
	for s := 0; s < tor.NumSwitches(); s++ {
		if d := tor.Degree(SwitchID(s)); d != 4 {
			t.Errorf("switch %d degree = %d, want 4", s, d)
		}
	}
	// Wrap-around shortens distance.
	if d := tor.HopDistance(tor.At(0, 0), tor.At(0, 2)); d != 1 {
		t.Errorf("torus wrap distance = %d, want 1", d)
	}
	if _, err := NewTorus(2, 3, 1); err == nil {
		t.Error("2x3 torus should be rejected")
	}
}

func TestString(t *testing.T) {
	m, _ := NewMesh(2, 3, 1)
	if s := m.String(); s != "2x3 mesh (6 switches)" {
		t.Errorf("String = %q", s)
	}
	if KindTorus.String() != "torus" || Kind(9).String() == "" {
		t.Error("Kind.String broken")
	}
}

func TestGrowthSequence(t *testing.T) {
	dims := GrowthSequence(3)
	// All r<=c pairs up to 3x3: (1,1),(1,2),(1,3),(2,2),(2,3),(3,3)
	want := []Dim{{1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3}, {3, 3}}
	if len(dims) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(dims), len(want), dims)
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Errorf("dims[%d] = %v, want %v", i, dims[i], want[i])
		}
	}
	if GrowthSequence(0) != nil {
		t.Error("GrowthSequence(0) should be nil")
	}
}

func TestGrowthSequenceMonotoneProperty(t *testing.T) {
	f := func(raw uint8) bool {
		maxDim := 1 + int(raw%20)
		dims := GrowthSequence(maxDim)
		if len(dims) != maxDim*(maxDim+1)/2 {
			return false
		}
		prev := 0
		for _, d := range dims {
			if d.Rows > d.Cols || d.Rows < 1 || d.Cols > maxDim {
				return false
			}
			if d.Switches() < prev {
				return false
			}
			prev = d.Switches()
		}
		// First must be 1x1, squarest shapes first among equal counts.
		return dims[0] == Dim{1, 1}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: in any mesh, HopDistance equals the unit-cost shortest path
// length through the link graph, and the returned path is link-contiguous.
func TestHopDistanceMatchesGraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
		m, err := NewMesh(rows, cols, 1)
		if err != nil {
			return false
		}
		a := rng.Intn(m.NumSwitches())
		b := rng.Intn(m.NumSwitches())
		path, cost, err := m.Graph().ShortestPathInto(a, b, func(graph.Arc) float64 { return 1 }, &graph.SPScratch{})
		if err != nil {
			return false // meshes are connected
		}
		if int(cost) != m.HopDistance(SwitchID(a), SwitchID(b)) {
			return false
		}
		for i := 0; i+1 < len(path); i++ {
			if m.Link(LinkID(path[i])).To != m.Link(LinkID(path[i+1])).From {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
