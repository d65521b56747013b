// Package topology models the NoC interconnect fabric: switches, directed
// inter-switch links, and the network-interface (NI) capacity of each
// switch. Two families are supported — the paper's 2-D mesh and the torus
// (mesh plus wrap-around links) — behind one immutable Topology value. A Spec
// names a family without fixing an instance, which is how the mapper's
// growth loop explores sizes within one family. Cores attach to switches
// through NIs; following the paper's footnote 1, NI area is accounted to the
// cores, so the topology only tracks how many cores a switch can host.
package topology

import (
	"fmt"

	"nocmap/internal/graph"
)

// SwitchID identifies a switch (router) in the topology.
type SwitchID int

// LinkID identifies a directed inter-switch link.
type LinkID int

// Link is a unidirectional channel between two switches. Mesh edges are
// represented as two opposing links.
type Link struct {
	ID   LinkID
	From SwitchID
	To   SwitchID
}

// Kind distinguishes supported topology families.
type Kind int

const (
	// KindMesh is a 2-D mesh: switch (r,c) connects to its 4-neighbours.
	KindMesh Kind = iota
	// KindTorus adds wrap-around links in both dimensions (extension X3).
	KindTorus
)

func (k Kind) String() string {
	switch k {
	case KindMesh:
		return "mesh"
	case KindTorus:
		return "torus"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Topology is an immutable switch-level network description.
type Topology struct {
	Kind Kind
	// Rows and Cols give the mesh dimensions; Switches = Rows*Cols.
	Rows, Cols int
	// CoresPerSwitch bounds how many cores the NIs of one switch can host.
	CoresPerSwitch int

	links []Link
	g     *graph.Directed
}

// NewMesh builds a rows x cols mesh where each switch can host up to
// coresPerSwitch cores.
func NewMesh(rows, cols, coresPerSwitch int) (*Topology, error) {
	return build(KindMesh, rows, cols, coresPerSwitch)
}

// NewTorus builds a rows x cols torus (mesh plus wrap-around links).
func NewTorus(rows, cols, coresPerSwitch int) (*Topology, error) {
	if rows < 3 || cols < 3 {
		// Smaller tori duplicate mesh links; treat as an input error to keep
		// the link set simple.
		return nil, fmt.Errorf("topology: torus needs rows,cols >= 3, got %dx%d", rows, cols)
	}
	return build(KindTorus, rows, cols, coresPerSwitch)
}

func build(kind Kind, rows, cols, coresPerSwitch int) (*Topology, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("topology: dimensions %dx%d invalid", rows, cols)
	}
	if coresPerSwitch < 1 {
		return nil, fmt.Errorf("topology: coresPerSwitch %d invalid", coresPerSwitch)
	}
	t := &Topology{Kind: kind, Rows: rows, Cols: cols, CoresPerSwitch: coresPerSwitch}
	n := rows * cols
	t.g = graph.NewDirected(n)
	addBoth := func(a, b SwitchID) error {
		for _, pair := range [][2]SwitchID{{a, b}, {b, a}} {
			id, err := t.g.AddArc(int(pair[0]), int(pair[1]))
			if err != nil {
				return err
			}
			t.links = append(t.links, Link{ID: LinkID(id), From: pair[0], To: pair[1]})
		}
		return nil
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			s := t.At(r, c)
			if c+1 < cols {
				if err := addBoth(s, t.At(r, c+1)); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := addBoth(s, t.At(r+1, c)); err != nil {
					return nil, err
				}
			}
		}
	}
	if kind == KindTorus {
		for r := 0; r < rows; r++ {
			if err := addBoth(t.At(r, cols-1), t.At(r, 0)); err != nil {
				return nil, err
			}
		}
		for c := 0; c < cols; c++ {
			if err := addBoth(t.At(rows-1, c), t.At(0, c)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// NumSwitches reports the switch count.
func (t *Topology) NumSwitches() int { return t.Rows * t.Cols }

// NumLinks reports the directed link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// At returns the switch at mesh coordinate (row, col).
func (t *Topology) At(row, col int) SwitchID { return SwitchID(row*t.Cols + col) }

// Coord returns the mesh coordinate of a switch.
func (t *Topology) Coord(s SwitchID) (row, col int) { return int(s) / t.Cols, int(s) % t.Cols }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[int(id)] }

// Links returns all directed links. The slice must not be modified.
func (t *Topology) Links() []Link { return t.links }

// Out returns the IDs of links leaving switch s.
func (t *Topology) Out(s SwitchID) []LinkID {
	arcs := t.g.Out(int(s))
	out := make([]LinkID, len(arcs))
	for i, a := range arcs {
		out[i] = LinkID(a)
	}
	return out
}

// Degree returns the number of links leaving s (= entering s, by symmetry).
func (t *Topology) Degree(s SwitchID) int { return len(t.g.Out(int(s))) }

// Graph exposes the underlying directed graph for path searches. Link IDs
// equal arc indices.
func (t *Topology) Graph() *graph.Directed { return t.g }

// HopDistance returns the minimal hop count between two switches.
func (t *Topology) HopDistance(a, b SwitchID) int {
	ar, ac := t.Coord(a)
	br, bc := t.Coord(b)
	dr := abs(ar - br)
	dc := abs(ac - bc)
	if t.Kind == KindTorus {
		if w := t.Rows - dr; w < dr {
			dr = w
		}
		if w := t.Cols - dc; w < dc {
			dc = w
		}
	}
	return dr + dc
}

// Centre returns the geometric centre switch. The mapper seeds the first
// placement of a flow with no mapped endpoint here.
func (t *Topology) Centre() SwitchID { return t.At((t.Rows-1)/2, (t.Cols-1)/2) }

// FindLink returns the link from a to b, if adjacent.
func (t *Topology) FindLink(a, b SwitchID) (LinkID, bool) {
	for _, id := range t.Out(a) {
		if t.links[int(id)].To == b {
			return id, true
		}
	}
	return -1, false
}

// String renders a compact description, e.g. "3x4 mesh (12 switches)".
func (t *Topology) String() string {
	return fmt.Sprintf("%dx%d %s (%d switches)", t.Rows, t.Cols, t.Kind, t.NumSwitches())
}

// Dim is a mesh size candidate in the growth sequence.
type Dim struct{ Rows, Cols int }

// Switches returns the switch count of the candidate.
func (d Dim) Switches() int { return d.Rows * d.Cols }

func (d Dim) String() string { return fmt.Sprintf("%dx%d", d.Rows, d.Cols) }

// GrowthSequence enumerates mesh sizes in the order the outer loop of
// Algorithm 2 explores them: non-decreasing switch count starting from a
// single switch, preferring squarer shapes among equal counts, capped at
// maxDim x maxDim (the paper stops at 20x20). Only shapes with Rows <= Cols
// are produced since transposes are equivalent.
func GrowthSequence(maxDim int) []Dim {
	if maxDim < 1 {
		return nil
	}
	var dims []Dim
	for r := 1; r <= maxDim; r++ {
		for c := r; c <= maxDim; c++ {
			dims = append(dims, Dim{Rows: r, Cols: c})
		}
	}
	// Order by switch count, then by squareness (smaller col-row gap), then
	// rows for determinism.
	lessThan := func(a, b Dim) bool {
		if a.Switches() != b.Switches() {
			return a.Switches() < b.Switches()
		}
		if ga, gb := a.Cols-a.Rows, b.Cols-b.Rows; ga != gb {
			return ga < gb
		}
		return a.Rows < b.Rows
	}
	// Insertion sort keeps this dependency-free and the list is small.
	for i := 1; i < len(dims); i++ {
		for j := i; j > 0 && lessThan(dims[j], dims[j-1]); j-- {
			dims[j], dims[j-1] = dims[j-1], dims[j]
		}
	}
	return dims
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
