package search

import (
	"sync"

	"nocmap/internal/core"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// EvalCache shares one core.Evaluator per topology across a search. A
// single annealer reuses the evaluator between its move chain and its
// shrink probes on the same fabric; the portfolio shares one cache across
// every member, so N annealers probing the same smaller mesh build its
// candidate-path table once. The design's flow templates do not depend on
// the fabric: they are built (and the inputs validated) with the first
// evaluator, and every later topology derives from it. Evaluators are safe
// for concurrent use, so handing one to multiple workers is sound.
// Options.GreedyStart builds one per Search call, seeded with the greedy
// pass's evaluator, unless the portfolio hands its own down.
type EvalCache struct {
	prep     *usecase.Prepared
	numCores int
	p        core.Params

	mu    sync.Mutex
	m     map[string]*core.Evaluator
	first *core.Evaluator // template donor for every later topology
}

// NewEvalCache returns an empty evaluator cache over the prepared design.
func NewEvalCache(prep *usecase.Prepared, numCores int, p core.Params) *EvalCache {
	return &EvalCache{prep: prep, numCores: numCores, p: p, m: make(map[string]*core.Evaluator)}
}

// adopt caches ev, an evaluator of the cache's design and params, for its
// topology and as the template donor of every later one.
func (c *EvalCache) adopt(ev *core.Evaluator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.first = ev
	c.m[ev.Topology().String()] = ev
}

// For returns the cached evaluator for the topology, constructing it on
// first use. Topologies are keyed by their description (family plus
// dimensions), so shape-equal instances built
// by different workers share one evaluator; callers must use the returned
// evaluator's Topology() rather than their own instance.
func (c *EvalCache) For(top *topology.Topology) (*core.Evaluator, error) {
	key := top.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev, ok := c.m[key]; ok {
		return ev, nil
	}
	var ev *core.Evaluator
	var err error
	if c.first == nil {
		ev, err = core.NewEvaluator(c.prep, c.numCores, top, c.p)
		c.first = ev
	} else {
		ev, err = c.first.On(top)
	}
	if err != nil {
		return nil, err
	}
	c.m[key] = ev
	return ev, nil
}
