package noc

import (
	"context"
	"fmt"
	"time"

	"nocmap/internal/search"
	"nocmap/internal/service"
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// Map runs the full pipeline on the design in-process: pre-processing,
// the selected search engine, analytic verification and summarization.
// The context and WithBudget bound the whole search; engines observe
// cancellation between evaluation steps. Verification failures do not
// error — they are reported in Result.Violations.
//
//	res, err := noc.Map(ctx, design,
//		noc.WithEngine("portfolio"),
//		noc.WithSeed(42),
//		noc.WithBudget(30*time.Second))
func Map(ctx context.Context, d *Design, opts ...Option) (*Result, error) {
	start := time.Now()
	cfg := newConfig(opts)
	eng, err := search.New(cfg.engine)
	if err != nil {
		return nil, err
	}
	spec, err := ResolveTopology(cfg.topology, d)
	if err != nil {
		return nil, err
	}
	if cfg.budget < 0 {
		return nil, fmt.Errorf("noc: budget %v invalid", cfg.budget)
	}
	if cfg.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.budget)
		defer cancel()
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		return nil, err
	}
	var tm Timings
	tm.PrepareMS = msSince(start)
	p := cfg.params
	p.Topology = spec
	searchStart := time.Now()
	res, err := eng.Search(ctx, prep, d.NumCores(), p, cfg.opts)
	if err != nil {
		return nil, err
	}
	tm.SearchMS = msSince(searchStart)
	sumStart := time.Now()
	summary := service.SummarizeResult(d.Name, prep, res)
	tm.SummarizeMS = msSince(sumStart)
	tm.TotalMS = msSince(start)
	return &Result{
		Summary: summary,
		engine:  cfg.engine,
		mapping: res.Mapping,
		prep:    prep,
		timings: tm,
	}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// ResolveTopology turns a topology argument — "mesh", "torus", or ""
// meaning "whatever the design's own tag says" — into a buildable spec.
func ResolveTopology(arg string, d *Design) (topology.Spec, error) {
	if arg == "" {
		arg = d.Topology
	}
	return topology.ParseSpec(arg)
}
