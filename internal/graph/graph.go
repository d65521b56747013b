// Package graph provides the graph primitives the mapping methodology is
// built on: an undirected graph with depth-first search and connected
// components (Algorithm 1 of the paper operates on the switching graph), and
// a directed graph with Dijkstra shortest paths under arbitrary non-negative
// edge costs (the least-cost path selection of Algorithm 2).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Undirected is a simple undirected graph over vertices 0..N-1.
// Parallel edges are collapsed; self-loops are ignored for reachability.
type Undirected struct {
	n   int
	adj []map[int]struct{}
}

// NewUndirected returns an undirected graph with n vertices and no edges.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		n = 0
	}
	adj := make([]map[int]struct{}, n)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	return &Undirected{n: n, adj: adj}
}

// AddEdge inserts the undirected edge (u, v). It returns an error if either
// endpoint is out of range. Self-loops are accepted but have no effect on
// connectivity.
func (g *Undirected) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return nil
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	return nil
}

// Neighbors returns the sorted neighbour list of v.
func (g *Undirected) Neighbors(v int) []int {
	if v < 0 || v >= g.n {
		return nil
	}
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// DFS performs an iterative depth-first search from start and returns the
// vertices reached, in visitation order. The caller's visited slice is
// updated in place; it must have length N.
func (g *Undirected) DFS(start int, visited []bool) []int {
	if start < 0 || start >= g.n || visited[start] {
		return nil
	}
	var order []int
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[v] {
			continue
		}
		visited[v] = true
		order = append(order, v)
		// Push sorted neighbours in reverse so they pop in ascending order,
		// making traversal deterministic.
		nbr := g.Neighbors(v)
		for i := len(nbr) - 1; i >= 0; i-- {
			if !visited[nbr[i]] {
				stack = append(stack, nbr[i])
			}
		}
	}
	return order
}

// Components returns the connected components of the graph, each sorted
// ascending, ordered by their smallest vertex. This is Algorithm 1 of the
// paper: repeated DFS until every vertex is visited, grouping the vertices
// reached by each search.
func (g *Undirected) Components() [][]int {
	visited := make([]bool, g.n)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if visited[v] {
			continue
		}
		comp := g.DFS(v, visited)
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Arc is a directed edge with an identifier, used by the directed graph. The
// ID lets callers attach external state (e.g. per-link residual bandwidth).
type Arc struct {
	ID   int
	From int
	To   int
}

// Directed is a directed multigraph over vertices 0..N-1 with identified
// arcs, supporting Dijkstra under caller-provided per-arc costs.
type Directed struct {
	n    int
	arcs []Arc
	out  [][]int // vertex -> indices into arcs
}

// NewDirected returns a directed graph with n vertices and no arcs.
func NewDirected(n int) *Directed {
	if n < 0 {
		n = 0
	}
	return &Directed{n: n, out: make([][]int, n)}
}

// AddArc appends a directed arc and returns its index. The index doubles as
// the arc ID handed back in paths.
func (g *Directed) AddArc(from, to int) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return -1, fmt.Errorf("graph: arc (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	id := len(g.arcs)
	g.arcs = append(g.arcs, Arc{ID: id, From: from, To: to})
	g.out[from] = append(g.out[from], id)
	return id, nil
}

// Out returns the indices of arcs leaving v.
func (g *Directed) Out(v int) []int {
	if v < 0 || v >= g.n {
		return nil
	}
	return g.out[v]
}

// CostFunc prices an arc for a particular search. Return Inf (or any value
// < 0) to forbid the arc.
type CostFunc func(arc Arc) float64

// ErrNoPath is returned when the destination is unreachable under the given
// cost function.
var ErrNoPath = errors.New("graph: no path")

// SPScratch is the reusable state of repeated shortest-path queries on one
// goroutine: the Dijkstra working arrays, the heap and the path buffer. A
// zero SPScratch is ready to use; buffers grow to the graph size on first
// use and are retained. Not safe for concurrent use — one scratch per
// searching goroutine, like tdma.State.
type SPScratch struct {
	dist []float64
	via  []int
	done []bool
	h    heapF
	path []int
}

// grow sizes the working arrays for an n-vertex graph.
func (sc *SPScratch) grow(n int) {
	if cap(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.via = make([]int, n)
		sc.done = make([]bool, n)
	}
	sc.dist = sc.dist[:n]
	sc.via = sc.via[:n]
	sc.done = sc.done[:n]
}

// ShortestPathInto runs Dijkstra from src to dst under cost. It returns the
// arc indices of a least-cost path and the total cost. Arcs priced negative
// or +Inf are treated as absent. Ties are broken deterministically by
// preferring lower vertex indices. Every working allocation is drawn from
// the scratch: the returned path slice is owned by the scratch and valid
// only until its next use.
func (g *Directed) ShortestPathInto(src, dst int, cost CostFunc, sc *SPScratch) ([]int, float64, error) {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		return nil, 0, fmt.Errorf("graph: shortest path endpoints (%d,%d) out of range [0,%d)", src, dst, g.n)
	}
	dist, via := g.dijkstraInto(src, cost, dst, sc)
	if via == nil || (dist[dst] != dist[dst]) || dist[dst] < 0 { // NaN or unreached marker
		return nil, 0, ErrNoPath
	}
	if via[dst] == -1 && src != dst {
		return nil, 0, ErrNoPath
	}
	// Reconstruct in reverse, then flip in place.
	path := sc.path[:0]
	for v := dst; v != src; {
		a := via[v]
		path = append(path, a)
		v = g.arcs[a].From
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	sc.path = path
	return path, dist[dst], nil
}

// ShortestTreeInto runs Dijkstra from src under cost and returns, for each
// vertex, the cost of the best path from src (negative if unreachable). The
// returned slice is owned by the scratch and valid only until its next use.
func (g *Directed) ShortestTreeInto(src int, cost CostFunc, sc *SPScratch) ([]float64, error) {
	if src < 0 || src >= g.n {
		return nil, fmt.Errorf("graph: shortest tree source %d out of range [0,%d)", src, g.n)
	}
	dist, _ := g.dijkstraInto(src, cost, -1, sc)
	return dist, nil
}

const unreached = -1.0

// dijkstraInto computes least costs from src over scratch-owned arrays.
// dist[v] < 0 marks unreachable. If stop >= 0, the search terminates once
// stop is settled. The returned slices alias the scratch.
func (g *Directed) dijkstraInto(src int, cost CostFunc, stop int, sc *SPScratch) ([]float64, []int) {
	sc.grow(g.n)
	dist, via, done := sc.dist, sc.via, sc.done
	for i := range dist {
		dist[i] = unreached
		via[i] = -1
		done[i] = false
	}
	dist[src] = 0
	h := &sc.h
	h.a = h.a[:0]
	h.push(item{v: src, d: 0})
	for h.len() > 0 {
		it := h.pop()
		if done[it.v] {
			continue
		}
		done[it.v] = true
		if it.v == stop {
			break
		}
		for _, ai := range g.out[it.v] {
			arc := g.arcs[ai]
			c := cost(arc)
			if c < 0 || c != c || isInf(c) { // forbidden: negative, NaN or +Inf
				continue
			}
			nd := dist[it.v] + c
			if dist[arc.To] < 0 || nd < dist[arc.To] ||
				(nd == dist[arc.To] && via[arc.To] >= 0 && arc.From < g.arcs[via[arc.To]].From) {
				if !done[arc.To] {
					dist[arc.To] = nd
					via[arc.To] = ai
					h.push(item{v: arc.To, d: nd})
				}
			}
		}
	}
	return dist, via
}

func isInf(f float64) bool { return f > maxFinite }

const maxFinite = 1.7976931348623157e308 / 2 // half of MaxFloat64: anything larger is "infinite"

// item is a heap entry.
type item struct {
	v int
	d float64
}

// heapF is a minimal binary min-heap on (d, v) pairs, ordered by d then v for
// determinism. It avoids container/heap's interface overhead in the hot path.
type heapF struct{ a []item }

func (h *heapF) len() int { return len(h.a) }

func (h *heapF) less(i, j int) bool {
	if h.a[i].d != h.a[j].d {
		return h.a[i].d < h.a[j].d
	}
	return h.a[i].v < h.a[j].v
}

func (h *heapF) push(it item) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *heapF) pop() item {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.less(l, small) {
			small = l
		}
		if r < len(h.a) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
