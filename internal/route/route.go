// Package route implements the path-selection half of the unified
// mapping-configuration step. Following the paper's reference [20], the cost
// of a path combines hop delay with the residual bandwidth/slots of the
// links it crosses, so lightly loaded detours can beat congested shortcuts.
//
// Guaranteed-throughput flows are deadlock-free by construction — TDMA
// reservations mean flits never block inside the network — so GT path
// selection may use arbitrary paths (LeastCost is plain Dijkstra over the
// fabric graph). The minimal-path enumeration is wrap-aware on tori, taking
// the shorter ring direction per dimension (both on a tie). Torus wrap links
// close cyclic channel dependencies within each ring, so torus paths are
// NOT deadlock-free for best-effort traffic without virtual channels or
// datelines; here they serve only as GT path candidates, where TDMA
// reservations make blocking impossible.
//
// The package is stateless: every query reads the caller's topology and
// slot-table state and allocates nothing shared, so concurrent engine runs
// on the service worker pool route independently without locking.
package route

import (
	"fmt"
	"math"
	"sync/atomic"

	"nocmap/internal/graph"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
)

// Path is an ordered list of directed links from a source switch to a
// destination switch.
type Path []topology.LinkID

// CostParams weight the two components of link cost from [20]: a fixed hop
// cost (delay, energy) and a load penalty that grows with slot-table
// occupancy, discouraging bandwidth fragmentation.
type CostParams struct {
	// HopCost is the fixed price of traversing one link.
	HopCost float64
	// LoadWeight scales the occupancy penalty.
	LoadWeight float64
	// MaxCandidates bounds how many candidate paths are generated per query.
	MaxCandidates int
}

// DefaultCostParams mirror the defaults used throughout the evaluation.
func DefaultCostParams() CostParams {
	return CostParams{HopCost: 1.0, LoadWeight: 4.0, MaxCandidates: 8}
}

// LinkCost prices one link given the residual state: the fixed hop cost plus
// a convex load penalty. Links without enough free slots for the request are
// priced +Inf (forbidden).
func LinkCost(st *tdma.State, link int, neededSlots int, p CostParams) float64 {
	free := st.FreeSlots(link)
	if free < neededSlots {
		return math.Inf(1)
	}
	occ := 1 - float64(free)/float64(st.Slots())
	return p.HopCost + p.LoadWeight*occ*occ
}

// PathCost sums LinkCost over a path.
func PathCost(st *tdma.State, path Path, neededSlots int, p CostParams) float64 {
	var sum float64
	for _, l := range path {
		c := LinkCost(st, int(l), neededSlots, p)
		if math.IsInf(c, 1) {
			return c
		}
		sum += c
	}
	return sum
}

// LeastCost runs Dijkstra over the topology under the residual-state cost
// and returns the cheapest feasible path from src to dst. It reports
// ErrNoPath via the wrapped graph error if every route is saturated.
func LeastCost(top *topology.Topology, st *tdma.State, src, dst topology.SwitchID, neededSlots int, p CostParams) (Path, float64, error) {
	arcs, cost, err := top.Graph().ShortestPathInto(int(src), int(dst), func(a graph.Arc) float64 {
		return LinkCost(st, a.ID, neededSlots, p)
	}, &graph.SPScratch{})
	if err != nil {
		return nil, 0, fmt.Errorf("route: %d->%d with %d slots: %w", src, dst, neededSlots, err)
	}
	path := make(Path, len(arcs))
	for i, a := range arcs {
		path[i] = topology.LinkID(a)
	}
	return path, cost, nil
}

// dimSteps returns how many steps and in which per-step direction (+1/-1) to
// travel from a to b along one dimension of size n. With wrap the shorter
// ring direction is taken; ties prefer the direct (mesh) direction, keeping
// the choice deterministic.
func dimSteps(n, a, b int, wrap bool) (steps, dir int) {
	if a == b {
		return 0, 0
	}
	steps, dir = b-a, 1
	if steps < 0 {
		steps, dir = -steps, -1
	}
	if wrap {
		if around := n - steps; around < steps {
			return around, -dir
		}
	}
	return steps, dir
}

// step advances one position along a dimension of size n, wrapping modulo n.
func step(n, pos, dir int) int { return ((pos+dir)%n + n) % n }

// MinimalPaths enumerates minimal (monotone) paths from src to dst, up to
// cap paths; with cap <= 0 all are returned. On a mesh these are the classic
// staircase paths; on a torus each dimension moves in its shorter wrap
// direction — and when the two ring directions tie (an even dimension
// crossed exactly halfway), both directions are enumerated, so no minimal
// path is missed. Enumeration order is deterministic (direct directions
// first, column-step branches first).
func MinimalPaths(top *topology.Topology, src, dst topology.SwitchID, cap int) []Path {
	wrap := top.Kind == topology.KindTorus
	sr, sc := top.Coord(src)
	dr, dc := top.Coord(dst)
	colSteps, colDirs := dimDirs(top.Cols, sc, dc, wrap)
	rowSteps, rowDirs := dimDirs(top.Rows, sr, dr, wrap)
	var out []Path
	for _, colDir := range colDirs {
		for _, rowDir := range rowDirs {
			var walk func(r, c, colLeft, rowLeft int, acc Path)
			walk = func(r, c, colLeft, rowLeft int, acc Path) {
				if cap > 0 && len(out) >= cap {
					return
				}
				if colLeft == 0 && rowLeft == 0 {
					out = append(out, append(Path(nil), acc...))
					return
				}
				if colLeft > 0 {
					nc := step(top.Cols, c, colDir)
					if l, ok := top.FindLink(top.At(r, c), top.At(r, nc)); ok {
						walk(r, nc, colLeft-1, rowLeft, append(acc, l))
					}
				}
				if rowLeft > 0 {
					nr := step(top.Rows, r, rowDir)
					if l, ok := top.FindLink(top.At(r, c), top.At(nr, c)); ok {
						walk(nr, c, colLeft, rowLeft-1, append(acc, l))
					}
				}
			}
			walk(sr, sc, colSteps, rowSteps, nil)
		}
	}
	return out
}

// dimDirs returns the minimal step count along one dimension and every
// per-step direction achieving it: one direction normally, both on a torus
// tie (direct direction listed first for determinism).
func dimDirs(n, a, b int, wrap bool) (steps int, dirs []int) {
	steps, dir := dimSteps(n, a, b, wrap)
	if steps == 0 {
		return 0, []int{0}
	}
	dirs = []int{dir}
	if wrap && n == 2*steps {
		dirs = append(dirs, -dir)
	}
	return steps, dirs
}

// maxCandidates is the candidate cap of a query: p.MaxCandidates, or 8 when
// unset.
func maxCandidates(p CostParams) int {
	if p.MaxCandidates <= 0 {
		return 8
	}
	return p.MaxCandidates
}

// Table caches the state-independent half of candidate generation — the
// minimal-path enumeration per (src, dst) switch pair — for one fixed
// topology. An evaluation engine that scores thousands of placements on the
// same fabric (core.Evaluator under the annealer) pays the staircase-path
// recursion once per pair instead of once per flow per candidate placement.
// The state-dependent half (the residual cost ordering, and the Dijkstra
// least-cost path when the minimal paths cannot certify it) is computed per
// query (CandidatesInto).
//
// The table also fixes detour, the fewest extra hops a non-minimal simple
// path needs over a minimal one: 2 on a mesh (the grid is bipartite, so
// every path between two switches has the parity of the minimal one), 1 on
// a torus (an odd ring breaks the parity), and none on a 1xN mesh, where a
// line has one simple path per pair.
//
// A Table is safe for concurrent use without locks; the portfolio's workers
// share one per topology. Entries are atomic pointers indexed by switch
// number: a per-source row is allocated on the first query from that source
// (never switches² entries up front — a 40x40 fabric would need 20 MiB),
// and an entry is filled on its first query. Two goroutines racing on the
// same entry compute the same deterministic enumeration, so whichever store
// lands is correct.
type Table struct {
	top    *topology.Topology
	max    int // candidate cap the cached enumeration was sized for
	detour int // extra hops of the shortest non-minimal path; 0 = none exists

	rows []atomic.Pointer[tableRow] // by source switch; nil until first use
}

// tableRow holds one source switch's enumerations by destination switch.
type tableRow struct {
	minimal []atomic.Pointer[[]Path]
}

// NewTable creates an empty candidate-path table for the topology. The cost
// params fix the candidate cap; queries must use the same MaxCandidates (the
// evaluator owns both, so this holds by construction).
func NewTable(top *topology.Topology, p CostParams) *Table {
	t := &Table{top: top, max: maxCandidates(p), detour: 2, rows: make([]atomic.Pointer[tableRow], top.NumSwitches())}
	switch {
	case top.Kind == topology.KindTorus:
		t.detour = 1
	case top.Rows == 1 || top.Cols == 1:
		t.detour = 0
	}
	return t
}

// detourFloor is the least cost any non-minimal path can have between two
// switches hops apart: it crosses at least hops+detour links, each costing
// at least hopCost. The sum is formed by repeated addition from zero, the
// way Dijkstra sums a path, so the bound holds in floating point.
func (t *Table) detourFloor(hops int, hopCost float64) float64 {
	if t.detour == 0 {
		return math.Inf(1)
	}
	var floor float64
	for range hops + t.detour {
		floor += hopCost
	}
	return floor
}

// minimalFor returns (computing and caching on first use) the minimal-path
// enumeration for one switch pair.
func (t *Table) minimalFor(src, dst topology.SwitchID) []Path {
	row := t.rows[src].Load()
	if row == nil {
		fresh := &tableRow{minimal: make([]atomic.Pointer[[]Path], len(t.rows))}
		if t.rows[src].CompareAndSwap(nil, fresh) {
			row = fresh
		} else {
			row = t.rows[src].Load()
		}
	}
	if cached := row.minimal[dst].Load(); cached != nil {
		return *cached
	}
	minimal := MinimalPaths(t.top, src, dst, 2*t.max)
	row.minimal[dst].Store(&minimal)
	return minimal
}

// Scratch holds the reusable working state of repeated candidate and tree
// queries on one goroutine: the Dijkstra scratch, the cost closure, and the
// scoring and output buffers. Obtain one with NewScratch; a Scratch is not
// safe for concurrent use, and the paths a CandidatesInto call (or the
// distances a LeastCostTreeInto call) returns are valid only until the
// scratch's next use.
type Scratch struct {
	sp     graph.SPScratch
	st     *tdma.State
	needed int
	cp     CostParams
	costFn graph.CostFunc
	lc     Path
	scored []scoredPath
	out    []Path
}

type scoredPath struct {
	path Path
	cost float64
}

// NewScratch returns an empty candidate-query scratch. The cost closure is
// built once here, so per-query path searches capture no new state.
func NewScratch() *Scratch {
	sc := &Scratch{}
	sc.costFn = func(a graph.Arc) float64 {
		return LinkCost(sc.st, a.ID, sc.needed, sc.cp)
	}
	return sc
}

// CandidatesInto assembles a deterministic, deduplicated list of candidate
// paths for a flow, cheapest first: the Dijkstra least-cost path (which may
// detour around saturated links), then the cached minimal paths, ordered by
// residual cost. At most MaxCandidates paths are returned; infeasible
// (infinite-cost) paths are dropped.
//
// The minimal paths are scored first, and the Dijkstra is skipped when they
// certify its answer: the enumeration is complete (fewer than twice the
// cap), exactly one feasible minimal path has the lowest cost, every link
// costs at least HopCost > 0, and that cost is below detourFloor, so no
// other path — minimal or not — can cost as little. Dijkstra would return
// that path, and the stable sort puts it first either way.
//
// Every working allocation is drawn from the scratch. The returned slice —
// and the least-cost path it may contain — are owned by the scratch and
// overwritten by the next call; minimal paths in the slice alias the
// table's immutable cache.
func (t *Table) CandidatesInto(sc *Scratch, st *tdma.State, src, dst topology.SwitchID, neededSlots int, p CostParams) []Path {
	minimal := t.minimalFor(src, dst)
	sc.scored = sc.scored[:0]
	best, ties := -1, 0
	for _, m := range minimal {
		c := PathCost(st, m, neededSlots, p)
		if math.IsInf(c, 1) {
			continue
		}
		if best < 0 || c < sc.scored[best].cost {
			best, ties = len(sc.scored), 1
		} else if c == sc.scored[best].cost {
			ties++
		}
		sc.scored = append(sc.scored, scoredPath{m, c})
	}
	certified := best >= 0 && ties == 1 && len(minimal) < 2*t.max && p.HopCost > 0 && p.LoadWeight >= 0 &&
		sc.scored[best].cost < t.detourFloor(len(sc.scored[best].path), p.HopCost)
	if !certified {
		t.leastCostFirst(sc, st, src, dst, neededSlots, p)
	}
	// Stable insertion sort by cost: equal-cost candidates keep their
	// insertion order (the candidate set is at most 2*max+1 paths).
	cands := sc.scored
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].cost < cands[j-1].cost; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if len(cands) > t.max {
		cands = cands[:t.max]
	}
	out := sc.out[:0]
	for _, c := range cands {
		out = append(out, c.path)
	}
	sc.out = out
	return out
}

// leastCostFirst runs the Dijkstra and puts its path at the front of the
// scored minimal paths: a minimal path moves there, a detour is inserted.
// The minimal enumeration never repeats a path, so this is the only
// deduplication the list needs.
func (t *Table) leastCostFirst(sc *Scratch, st *tdma.State, src, dst topology.SwitchID, neededSlots int, p CostParams) {
	sc.st, sc.needed, sc.cp = st, neededSlots, p
	arcs, _, err := t.top.Graph().ShortestPathInto(int(src), int(dst), sc.costFn, &sc.sp)
	if err != nil {
		return
	}
	buf := sc.lc[:0]
	for _, a := range arcs {
		buf = append(buf, topology.LinkID(a))
	}
	sc.lc = buf
	lead, at := scoredPath{buf, PathCost(st, buf, neededSlots, p)}, len(sc.scored)
	if math.IsInf(lead.cost, 1) {
		return
	}
	for i, s := range sc.scored {
		if pathEqual(s.path, buf) {
			lead, at = s, i
			break
		}
	}
	if at == len(sc.scored) {
		sc.scored = append(sc.scored, scoredPath{})
	}
	copy(sc.scored[1:at+1], sc.scored[:at])
	sc.scored[0] = lead
}

// LeastCostTreeInto computes, from a single source, the least path cost to
// every switch (negative = unreachable) under the residual-state cost. The
// mapper uses it to evaluate every candidate placement of an unmapped core
// in one Dijkstra run. The returned slice is owned by the scratch and
// overwritten by its next query.
func (t *Table) LeastCostTreeInto(sc *Scratch, st *tdma.State, src topology.SwitchID, neededSlots int, p CostParams) ([]float64, error) {
	sc.st, sc.needed, sc.cp = st, neededSlots, p
	dist, err := t.top.Graph().ShortestTreeInto(int(src), sc.costFn, &sc.sp)
	if err != nil {
		return nil, fmt.Errorf("route: tree from %d: %w", src, err)
	}
	return dist, nil
}

func pathEqual(a, b Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Contiguous verifies that a path's links join head-to-tail and start/end at
// the given switches.
func Contiguous(top *topology.Topology, path Path, src, dst topology.SwitchID) bool {
	if len(path) == 0 {
		return src == dst
	}
	if top.Link(path[0]).From != src || top.Link(path[len(path)-1]).To != dst {
		return false
	}
	for i := 0; i+1 < len(path); i++ {
		if top.Link(path[i]).To != top.Link(path[i+1]).From {
			return false
		}
	}
	return true
}
