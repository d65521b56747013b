package route

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"nocmap/internal/tdma"
	"nocmap/internal/topology"
)

func mesh(t *testing.T, rows, cols int) *topology.Topology {
	t.Helper()
	m, err := topology.NewMesh(rows, cols, 8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func state(t *testing.T, top *topology.Topology, slots int) *tdma.State {
	t.Helper()
	s, err := tdma.NewState(top.NumLinks(), slots)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLinkCostFreeAndLoaded(t *testing.T) {
	top := mesh(t, 1, 2)
	st := state(t, top, 8)
	p := DefaultCostParams()
	free := LinkCost(st, 0, 1, p)
	if free != p.HopCost {
		t.Errorf("free link cost = %v, want %v", free, p.HopCost)
	}
	// Occupy 4 of 8 slots on link 0.
	if err := st.Reserve(1, []int{0}, []int{0, 2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	loaded := LinkCost(st, 0, 1, p)
	if loaded <= free {
		t.Errorf("loaded link should cost more: %v vs %v", loaded, free)
	}
	// Insufficient slots: forbidden.
	if c := LinkCost(st, 0, 5, p); !math.IsInf(c, 1) {
		t.Errorf("infeasible link cost = %v, want +Inf", c)
	}
}

// Regression: minimal paths on a torus must take the shorter wrap
// direction, so no path exceeds ⌈rows/2⌉ + ⌈cols/2⌉ hops, and every one must
// be exactly as long as the torus hop distance.
func TestMinimalPathsTorusWrapHopBound(t *testing.T) {
	for _, size := range [][2]int{{3, 3}, {4, 5}, {5, 4}, {5, 5}} {
		rows, cols := size[0], size[1]
		tor, err := topology.NewTorus(rows, cols, 8)
		if err != nil {
			t.Fatal(err)
		}
		bound := (rows+1)/2 + (cols+1)/2
		for src := topology.SwitchID(0); int(src) < tor.NumSwitches(); src++ {
			for dst := topology.SwitchID(0); int(dst) < tor.NumSwitches(); dst++ {
				paths := MinimalPaths(tor, src, dst, 0)
				if len(paths) == 0 {
					t.Fatalf("%dx%d %d->%d: no minimal path", rows, cols, src, dst)
				}
				want := tor.HopDistance(src, dst)
				if want > bound {
					t.Fatalf("%dx%d %d->%d: hop distance %d exceeds wrap bound %d", rows, cols, src, dst, want, bound)
				}
				for _, p := range paths {
					if len(p) != want {
						t.Fatalf("%dx%d %d->%d: %d hops, hop distance %d (path %v)", rows, cols, src, dst, len(p), want, p)
					}
					if !Contiguous(tor, p, src, dst) {
						t.Fatalf("%dx%d %d->%d: discontiguous path %v", rows, cols, src, dst, p)
					}
				}
			}
		}
	}
}

// Torus minimal paths must use wrap links when they shorten the route, stay
// minimal, and remain within the candidate machinery (dedup, ordering).
func TestMinimalPathsTorusWrap(t *testing.T) {
	tor, err := topology.NewTorus(4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// (0,0) -> (0,3): one hop via the column wrap link, not three across.
	paths := MinimalPaths(tor, tor.At(0, 0), tor.At(0, 3), 0)
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("wrap minimal paths = %v, want one single-hop path", paths)
	}
	if l := tor.Link(paths[0][0]); l.From != tor.At(0, 0) || l.To != tor.At(0, 3) {
		t.Errorf("wrap path uses link %v", l)
	}
	// (0,0) -> (3,3): one wrap hop per dimension, two interleavings.
	paths = MinimalPaths(tor, tor.At(0, 0), tor.At(3, 3), 0)
	if len(paths) != 2 {
		t.Fatalf("diagonal wrap minimal paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p) != tor.HopDistance(tor.At(0, 0), tor.At(3, 3)) {
			t.Errorf("non-minimal torus path %v", p)
		}
		if !Contiguous(tor, p, tor.At(0, 0), tor.At(3, 3)) {
			t.Errorf("discontiguous torus path %v", p)
		}
	}
	// Tied ring directions (even dimension crossed halfway): both ways are
	// minimal and both must be enumerated.
	paths = MinimalPaths(tor, tor.At(0, 0), tor.At(0, 2), 0)
	if len(paths) != 2 {
		t.Fatalf("tied wrap minimal paths = %d, want 2 (one per ring direction)", len(paths))
	}
	for _, p := range paths {
		if len(p) != 2 || !Contiguous(tor, p, tor.At(0, 0), tor.At(0, 2)) {
			t.Errorf("bad tied-direction path %v", p)
		}
	}
	if pathKey(paths[0]) == pathKey(paths[1]) {
		t.Error("tied-direction paths are duplicates")
	}

}

func TestMinimalPathsCount(t *testing.T) {
	top := mesh(t, 3, 3)
	// (0,0) -> (2,2): C(4,2) = 6 minimal paths.
	paths := MinimalPaths(top, top.At(0, 0), top.At(2, 2), 0)
	if len(paths) != 6 {
		t.Fatalf("minimal path count = %d, want 6", len(paths))
	}
	for _, p := range paths {
		if len(p) != 4 || !Contiguous(top, p, top.At(0, 0), top.At(2, 2)) {
			t.Errorf("bad minimal path %v", p)
		}
	}
	// Cap respected.
	if got := MinimalPaths(top, top.At(0, 0), top.At(2, 2), 3); len(got) != 3 {
		t.Errorf("capped count = %d, want 3", len(got))
	}
	// Same switch: one empty path.
	if got := MinimalPaths(top, 0, 0, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("self minimal paths = %v", got)
	}
}

func TestLeastCostAvoidsSaturation(t *testing.T) {
	top := mesh(t, 2, 2)
	st := state(t, top, 4)
	p := DefaultCostParams()
	src, dst := top.At(0, 0), top.At(0, 1)
	// Saturate the direct link (0,0)->(0,1).
	direct, ok := top.FindLink(src, dst)
	if !ok {
		t.Fatal("missing direct link")
	}
	if err := st.Reserve(9, []int{int(direct)}, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	path, _, err := LeastCost(top, st, src, dst, 1, p)
	if err != nil {
		t.Fatalf("LeastCost: %v", err)
	}
	if len(path) != 3 {
		t.Errorf("detour length = %d, want 3 (around the square)", len(path))
	}
	for _, l := range path {
		if l == direct {
			t.Error("path used the saturated link")
		}
	}
}

func TestLeastCostNoPath(t *testing.T) {
	top := mesh(t, 1, 2)
	st := state(t, top, 2)
	// Saturate both directions.
	if err := st.Reserve(1, []int{0}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Reserve(1, []int{1}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LeastCost(top, st, 0, 1, 1, DefaultCostParams()); err == nil {
		t.Error("saturated network should yield no path")
	}
}

func TestLeastCostTree(t *testing.T) {
	top := mesh(t, 2, 3)
	st := state(t, top, 8)
	dist, err := NewTable(top, DefaultCostParams()).LeastCostTreeInto(NewScratch(), st, top.At(0, 0), 1, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if dist[top.At(0, 0)] != 0 {
		t.Errorf("self distance = %v", dist[0])
	}
	// Under uniform cost (fresh state), distance = hop count * HopCost.
	for s := 0; s < top.NumSwitches(); s++ {
		want := float64(top.HopDistance(top.At(0, 0), topology.SwitchID(s)))
		if math.Abs(dist[s]-want) > 1e-12 {
			t.Errorf("dist[%d] = %v, want %v", s, dist[s], want)
		}
	}
}

func TestCandidatesOrderingAndDedup(t *testing.T) {
	top := mesh(t, 3, 3)
	st := state(t, top, 8)
	p := DefaultCostParams()
	cands := CandidatesReference(top, st, top.At(0, 0), top.At(2, 2), 1, p)
	if len(cands) == 0 {
		t.Fatal("no candidates on a fresh mesh")
	}
	if len(cands) > p.MaxCandidates {
		t.Errorf("candidate count %d exceeds cap %d", len(cands), p.MaxCandidates)
	}
	seen := map[string]bool{}
	prev := -1.0
	for _, c := range cands {
		if !Contiguous(top, c, top.At(0, 0), top.At(2, 2)) {
			t.Errorf("candidate %v not contiguous", c)
		}
		k := pathKey(c)
		if seen[k] {
			t.Error("duplicate candidate")
		}
		seen[k] = true
		cost := PathCost(st, c, 1, p)
		if cost < prev {
			t.Error("candidates not sorted by cost")
		}
		prev = cost
	}
}

func TestCandidatesSkipInfeasible(t *testing.T) {
	top := mesh(t, 1, 2)
	st := state(t, top, 2)
	if err := st.Reserve(1, []int{0}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if cands := CandidatesReference(top, st, 0, 1, 1, DefaultCostParams()); len(cands) != 0 {
		t.Errorf("saturated mesh candidates = %v, want none", cands)
	}
}

// Property: every minimal path has exactly HopDistance links and never
// leaves the bounding box of src/dst.
func TestMinimalPathsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(4), 2+rng.Intn(4)
		top, err := topology.NewMesh(rows, cols, 4)
		if err != nil {
			return false
		}
		src := topology.SwitchID(rng.Intn(top.NumSwitches()))
		dst := topology.SwitchID(rng.Intn(top.NumSwitches()))
		want := top.HopDistance(src, dst)
		paths := MinimalPaths(top, src, dst, 20)
		if len(paths) == 0 {
			return false
		}
		sr, sc := top.Coord(src)
		dr, dc := top.Coord(dst)
		loR, hiR := min(sr, dr), max(sr, dr)
		loC, hiC := min(sc, dc), max(sc, dc)
		for _, p := range paths {
			if len(p) != want || !Contiguous(top, p, src, dst) {
				return false
			}
			for _, l := range p {
				r, c := top.Coord(top.Link(l).To)
				if r < loR || r > hiR || c < loC || c > hiC {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the Dijkstra least-cost path on a fresh (uniform) mesh is
// minimal.
func TestLeastCostMinimalOnFreshMesh(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(4), 2+rng.Intn(4)
		top, err := topology.NewMesh(rows, cols, 4)
		if err != nil {
			return false
		}
		st, err := tdma.NewState(top.NumLinks(), 8)
		if err != nil {
			return false
		}
		src := topology.SwitchID(rng.Intn(top.NumSwitches()))
		dst := topology.SwitchID(rng.Intn(top.NumSwitches()))
		if src == dst {
			return true
		}
		path, _, err := LeastCost(top, st, src, dst, 1, DefaultCostParams())
		if err != nil {
			return false
		}
		return len(path) == top.HopDistance(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestTableMatchesCandidates: the cached table must return exactly what the
// from-scratch candidates oracle returns, on fresh and on loaded states,
// across mesh, torus and repeated queries (cache hits).
func TestTableMatchesCandidates(t *testing.T) {
	tops := []*topology.Topology{}
	if m, err := topology.NewMesh(3, 4, 1); err == nil {
		tops = append(tops, m)
	}
	if tor, err := topology.NewTorus(3, 3, 1); err == nil {
		tops = append(tops, tor)
	}
	p := DefaultCostParams()
	for _, top := range tops {
		st, err := tdma.NewState(top.NumLinks(), 8)
		if err != nil {
			t.Fatal(err)
		}
		tab := NewTable(top, p)
		// Load a few links so the residual-cost ordering differs from hops.
		if err := st.Reserve(1, []int{0, 1}, []int{0, 2, 4}); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // second round exercises the cache hit
			for src := 0; src < top.NumSwitches(); src++ {
				for dst := 0; dst < top.NumSwitches(); dst++ {
					if src == dst {
						continue
					}
					want := CandidatesReference(top, st, topology.SwitchID(src), topology.SwitchID(dst), 2, p)
					got := tab.CandidatesInto(NewScratch(), st, topology.SwitchID(src), topology.SwitchID(dst), 2, p)
					if len(got) != len(want) {
						t.Fatalf("%s %d->%d: table returned %d candidates, want %d", top, src, dst, len(got), len(want))
					}
					for i := range got {
						if pathKey(got[i]) != pathKey(want[i]) {
							t.Fatalf("%s %d->%d: candidate %d differs: %v vs %v", top, src, dst, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestTableConcurrent hammers one table from many goroutines; run under
// -race this pins the locking of the lazy fill.
func TestTableConcurrent(t *testing.T) {
	top, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultCostParams()
	tab := NewTable(top, p)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int) {
			defer func() { done <- struct{}{} }()
			st, _ := tdma.NewState(top.NumLinks(), 8)
			for i := 0; i < 50; i++ {
				src := topology.SwitchID((seed + i) % top.NumSwitches())
				dst := topology.SwitchID((seed*3 + i*7) % top.NumSwitches())
				if src == dst {
					continue
				}
				if got := tab.CandidatesInto(NewScratch(), st, src, dst, 1, p); len(got) == 0 {
					t.Errorf("no candidates %d->%d on empty state", src, dst)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// pathKey is a comparable encoding of a path (asserts candidate-set
// equality).
func pathKey(p Path) string {
	b := make([]byte, 0, 4*len(p))
	for _, l := range p {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

// TestTableMemoryBounded: a table on a 40x40 mesh allocates only the rows of
// the sources it is queried from — far below the switches²·8 bytes of a
// dense pointer table (20 MiB here).
func TestTableMemoryBounded(t *testing.T) {
	top, err := topology.NewMesh(40, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := top.NumSwitches()
	queries := [][2]int{{0, n - 1}, {0, n / 2}, {n - 1, 0}, {n / 2, n/2 + 41}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := NewTable(top, DefaultCostParams())
	for _, q := range queries {
		if got := tab.minimalFor(topology.SwitchID(q[0]), topology.SwitchID(q[1])); len(got) == 0 {
			t.Fatalf("no minimal paths %d->%d", q[0], q[1])
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tab)
	const limit = 256 << 10
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= limit {
		t.Fatalf("table allocated %d bytes for %d queries on %d switches, want < %d (dense would be %d)",
			grew, len(queries), n, limit, n*n*8)
	}
}

// TestCandidatesSameSwitchScratchIndependent: a src == dst query returns
// the single empty path on a fresh scratch and on a warm one alike, with
// the Dijkstra certified away (default costs) and with it run (HopCost 0
// defeats the certificate).
func TestCandidatesSameSwitchScratchIndependent(t *testing.T) {
	top := mesh(t, 2, 2)
	st := state(t, top, 8)
	for _, p := range []CostParams{DefaultCostParams(), {HopCost: 0, LoadWeight: 4, MaxCandidates: 8}} {
		tab := NewTable(top, p)
		fresh := len(tab.CandidatesInto(NewScratch(), st, 1, 1, 1, p))
		warm := NewScratch()
		tab.CandidatesInto(warm, st, 0, 3, 1, p)
		if got := len(tab.CandidatesInto(warm, st, 1, 1, 1, p)); fresh != 1 || got != 1 {
			t.Errorf("HopCost %g: src == dst gave %d candidates on a fresh scratch, %d on a warm one, want 1 and 1", p.HopCost, fresh, got)
		}
	}
}

// FuzzCandidates holds Table.CandidatesInto, certificate and all, to the
// always-Dijkstra CandidatesReference: path by path, in order, over lines,
// meshes up to 6x6 (past the enumeration cap), 3x3-5x5 tori, random prior
// reservations and demands, and cost params that do and do not admit the
// certificate. One scratch serves every query, as in the evaluator.
func FuzzCandidates(f *testing.F) {
	for i := 0; i < 12; i++ {
		f.Add(uint8(i), uint8(i*5), uint8(i*7), uint8(i), int64(i))
	}
	f.Fuzz(func(t *testing.T, kind, rows, cols, costs uint8, seed int64) {
		var top *topology.Topology
		var err error
		switch kind % 3 {
		case 0: // a line, either way round
			n := 1 + int(cols%8)
			if rows%2 == 0 {
				top, err = topology.NewMesh(1, n, 1)
			} else {
				top, err = topology.NewMesh(n, 1, 1)
			}
		case 1:
			top, err = topology.NewMesh(1+int(rows%6), 1+int(cols%6), 1)
		default:
			top, err = topology.NewTorus(3+int(rows%3), 3+int(cols%3), 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		p := []CostParams{
			DefaultCostParams(),
			{HopCost: 0.1, LoadWeight: 0, MaxCandidates: 8},
			{HopCost: 0, LoadWeight: 4, MaxCandidates: 8},
			{HopCost: 1, LoadWeight: 4, MaxCandidates: 2},
		}[costs%4]
		rng := rand.New(rand.NewSource(seed))
		slots := 4 + rng.Intn(5)
		st, err := tdma.NewState(top.NumLinks(), slots)
		if err != nil {
			t.Fatal(err)
		}
		for i := rng.Intn(3*top.NumLinks() + 1); i > 0; i-- {
			_ = st.Reserve(int32(1+rng.Intn(4)), []int{rng.Intn(top.NumLinks())}, []int{rng.Intn(slots)})
		}
		tab, sc, n := NewTable(top, p), NewScratch(), top.NumSwitches()
		for q := 0; q < 32; q++ {
			src, dst := topology.SwitchID(rng.Intn(n)), topology.SwitchID(rng.Intn(n))
			needed := 1 + rng.Intn(3)
			got := tab.CandidatesInto(sc, st, src, dst, needed, p)
			want := CandidatesReference(top, st, src, dst, needed, p)
			if len(got) != len(want) {
				t.Fatalf("%s %+v %d->%d needing %d: %d candidates %v, reference %d %v", top, p, src, dst, needed, len(got), got, len(want), want)
			}
			for i := range got {
				if !pathEqual(got[i], want[i]) {
					t.Fatalf("%s %+v %d->%d needing %d: candidate %d is %v, reference %v", top, p, src, dst, needed, i, got[i], want[i])
				}
			}
		}
	})
}
