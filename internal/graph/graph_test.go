package graph

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(4)
	if g.n != 4 {
		t.Fatalf("N = %d, want 4", g.n)
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 0); err != nil { // parallel edge collapses
		t.Fatalf("AddEdge: %v", err)
	}
	if !reflect.DeepEqual(g.Neighbors(0), []int{1}) || !reflect.DeepEqual(g.Neighbors(1), []int{0}) {
		t.Error("edge (0,1) should exist in both directions")
	}
	if len(g.adj[2]) != 0 || len(g.adj[3]) != 0 {
		t.Error("edge (2,3) should not exist")
	}
	if len(g.adj[0]) != 1 || len(g.adj[1]) != 1 {
		t.Errorf("degrees = %d,%d, want 1,1", len(g.adj[0]), len(g.adj[1]))
	}
}

func TestUndirectedAddEdgeOutOfRange(t *testing.T) {
	g := NewUndirected(2)
	for _, e := range [][2]int{{-1, 0}, {0, 2}, {5, 5}} {
		if err := g.AddEdge(e[0], e[1]); err == nil {
			t.Errorf("AddEdge(%d,%d) should fail", e[0], e[1])
		}
	}
}

func TestUndirectedSelfLoopIgnored(t *testing.T) {
	g := NewUndirected(2)
	if err := g.AddEdge(0, 0); err != nil {
		t.Fatalf("self loop rejected: %v", err)
	}
	if len(g.adj[0]) != 0 {
		t.Errorf("self loop should not change degree, got %d", len(g.adj[0]))
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Errorf("components = %v, want two singletons", comps)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewUndirected(5)
	for _, v := range []int{4, 2, 3, 1} {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{1, 2, 3, 4}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, want) {
		t.Errorf("Neighbors(0) = %v, want %v", got, want)
	}
	if g.Neighbors(-1) != nil {
		t.Error("Neighbors out of range should be nil")
	}
}

func TestComponentsEmptyAndSingleton(t *testing.T) {
	if comps := NewUndirected(0).Components(); len(comps) != 0 {
		t.Errorf("empty graph components = %v", comps)
	}
	comps := NewUndirected(1).Components()
	if len(comps) != 1 || len(comps[0]) != 1 || comps[0][0] != 0 {
		t.Errorf("singleton components = %v", comps)
	}
}

func TestComponentsFig4(t *testing.T) {
	// The switching graph of the paper's Figure 4: 10 vertices.
	// 0..2 = U1..U3, 3 = U_123, 4..5 = U4,U5, 6 = U_45, 7 = U6, 8 = U7, 9 = U8.
	// Group 1 = {U1,U2,U3,U_123}, Group 2 = {U4,U5,U_45},
	// Group 3 = {U6,U7}, Group 4 = {U8}.
	g := NewUndirected(10)
	edges := [][2]int{{0, 3}, {1, 3}, {2, 3}, {0, 1}, {1, 2}, {4, 6}, {5, 6}, {7, 8}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8}, {9}}
	if got := g.Components(); !reflect.DeepEqual(got, want) {
		t.Errorf("Components = %v, want %v", got, want)
	}
}

func TestDFSVisitedRespected(t *testing.T) {
	g := NewUndirected(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	visited := make([]bool, 3)
	visited[1] = true
	order := g.DFS(0, visited)
	if !reflect.DeepEqual(order, []int{0}) {
		t.Errorf("DFS with pre-visited neighbour = %v, want [0]", order)
	}
	if g.DFS(0, visited) != nil {
		t.Error("DFS from visited vertex should return nil")
	}
}

// Components must partition the vertex set regardless of edge set.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := NewUndirected(n)
		for i := 0; i < rng.Intn(3*n); i++ {
			if err := g.AddEdge(rng.Intn(n), rng.Intn(n)); err != nil {
				return false
			}
		}
		comps := g.Components()
		seen := make([]bool, n)
		total := 0
		for _, c := range comps {
			for _, v := range c {
				if seen[v] {
					return false // vertex in two components
				}
				seen[v] = true
				total++
			}
		}
		if total != n {
			return false
		}
		// Every edge stays within one component.
		compOf := make([]int, n)
		for i, c := range comps {
			for _, v := range c {
				compOf[v] = i
			}
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if compOf[u] != compOf[v] {
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

func unitCost(Arc) float64 { return 1 }

func buildLine(n int) *Directed {
	g := NewDirected(n)
	for i := 0; i+1 < n; i++ {
		if _, err := g.AddArc(i, i+1); err != nil {
			panic(err)
		}
	}
	return g
}

func TestShortestPathLine(t *testing.T) {
	g := buildLine(5)
	path, cost, err := g.ShortestPathInto(0, 4, unitCost, &SPScratch{})
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if cost != 4 || len(path) != 4 {
		t.Errorf("cost=%v len=%d, want 4,4", cost, len(path))
	}
	for i, a := range path {
		if g.arcs[a].From != i || g.arcs[a].To != i+1 {
			t.Errorf("arc %d = %+v, want %d->%d", i, g.arcs[a], i, i+1)
		}
	}
}

func TestShortestPathSameVertex(t *testing.T) {
	g := buildLine(3)
	path, cost, err := g.ShortestPathInto(1, 1, unitCost, &SPScratch{})
	if err != nil {
		t.Fatalf("ShortestPath(v,v): %v", err)
	}
	if len(path) != 0 || cost != 0 {
		t.Errorf("path=%v cost=%v, want empty path, 0", path, cost)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := buildLine(3) // arcs only forward
	if _, _, err := g.ShortestPathInto(2, 0, unitCost, &SPScratch{}); err != ErrNoPath {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestShortestPathForbiddenArc(t *testing.T) {
	g := NewDirected(3)
	direct, _ := g.AddArc(0, 2)
	a1, _ := g.AddArc(0, 1)
	a2, _ := g.AddArc(1, 2)
	cost := func(a Arc) float64 {
		if a.ID == direct {
			return math.Inf(1) // forbidden
		}
		return 1
	}
	path, c, err := g.ShortestPathInto(0, 2, cost, &SPScratch{})
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if !reflect.DeepEqual(path, []int{a1, a2}) || c != 2 {
		t.Errorf("path=%v cost=%v, want detour via 1 with cost 2", path, c)
	}
	// Negative cost also means forbidden.
	cost2 := func(a Arc) float64 {
		if a.ID == direct {
			return -1
		}
		return 1
	}
	if path2, _, err := g.ShortestPathInto(0, 2, cost2, &SPScratch{}); err != nil || len(path2) != 2 {
		t.Errorf("negative-cost arc not excluded: path=%v err=%v", path2, err)
	}
}

func TestShortestPathPrefersCheap(t *testing.T) {
	g := NewDirected(4)
	exp, _ := g.AddArc(0, 3) // expensive direct
	c1, _ := g.AddArc(0, 1)
	c2, _ := g.AddArc(1, 2)
	c3, _ := g.AddArc(2, 3)
	cost := func(a Arc) float64 {
		if a.ID == exp {
			return 10
		}
		return 1
	}
	path, c, err := g.ShortestPathInto(0, 3, cost, &SPScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, []int{c1, c2, c3}) || c != 3 {
		t.Errorf("path=%v cost=%v, want 3-hop cost 3", path, c)
	}
}

func TestShortestPathOutOfRange(t *testing.T) {
	g := buildLine(3)
	if _, _, err := g.ShortestPathInto(-1, 2, unitCost, &SPScratch{}); err == nil {
		t.Error("negative src should error")
	}
	if _, _, err := g.ShortestPathInto(0, 3, unitCost, &SPScratch{}); err == nil {
		t.Error("dst out of range should error")
	}
}

func TestShortestTree(t *testing.T) {
	g := buildLine(4)
	sc := &SPScratch{}
	dist, err := g.ShortestTreeInto(0, unitCost, sc)
	if err != nil {
		t.Fatal(err)
	}
	wantDist := []float64{0, 1, 2, 3}
	if !reflect.DeepEqual(dist, wantDist) {
		t.Errorf("dist = %v, want %v", dist, wantDist)
	}
	if sc.via[0] != -1 {
		t.Errorf("via[src] = %d, want -1", sc.via[0])
	}
	// Backwards tree: unreachable vertices are negative.
	dist2, err := g.ShortestTreeInto(3, unitCost, sc)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if dist2[v] >= 0 {
			t.Errorf("dist2[%d] = %v, want unreachable (<0)", v, dist2[v])
		}
	}
}

func TestAddArcOutOfRange(t *testing.T) {
	g := NewDirected(2)
	if _, err := g.AddArc(0, 2); err == nil {
		t.Error("AddArc out of range should fail")
	}
	if _, err := g.AddArc(-1, 0); err == nil {
		t.Error("AddArc negative should fail")
	}
}

// Dijkstra on random grid-ish graphs: cost must equal BFS hop count under
// unit costs, and path arcs must be contiguous.
func TestDijkstraMatchesBFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := NewDirected(n)
		for i := 0; i < 4*n; i++ {
			if _, err := g.AddArc(rng.Intn(n), rng.Intn(n)); err != nil {
				return false
			}
		}
		src, dst := rng.Intn(n), rng.Intn(n)
		// BFS reference.
		distBFS := make([]int, n)
		for i := range distBFS {
			distBFS[i] = -1
		}
		distBFS[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, ai := range g.Out(v) {
				to := g.arcs[ai].To
				if distBFS[to] < 0 {
					distBFS[to] = distBFS[v] + 1
					queue = append(queue, to)
				}
			}
		}
		path, cost, err := g.ShortestPathInto(src, dst, unitCost, &SPScratch{})
		if distBFS[dst] < 0 {
			return err == ErrNoPath
		}
		if err != nil {
			return false
		}
		if int(cost) != distBFS[dst] || len(path) != distBFS[dst] {
			return false
		}
		// Contiguity.
		for i := 0; i+1 < len(path); i++ {
			if g.arcs[path[i]].To != g.arcs[path[i+1]].From {
				return false
			}
		}
		if len(path) > 0 && (g.arcs[path[0]].From != src || g.arcs[path[len(path)-1]].To != dst) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The heap must return items in non-decreasing order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := &heapF{}
		for i, v := range vals {
			if v != v { // skip NaN
				continue
			}
			h.push(item{v: i, d: v})
		}
		prev := math.Inf(-1)
		var out []float64
		for h.len() > 0 {
			it := h.pop()
			if it.d < prev {
				return false
			}
			prev = it.d
			out = append(out, it.d)
		}
		sorted := append([]float64(nil), out...)
		sort.Float64s(sorted)
		return reflect.DeepEqual(out, sorted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
