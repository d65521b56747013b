package noc_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/usecase"
	"nocmap/pkg/noc"
)

// slowedEngine maps the greedy base, then blocks until ctx ends or its gate
// opens and returns the base either way: an improvement engine the deadline
// can cut short after its base.
type slowedEngine struct{ gate <-chan struct{} }

func (slowedEngine) Name() string { return "slowed-local" }

func (e slowedEngine) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts search.Options) (*core.Result, error) {
	base, err := opts.GreedyBase(ctx, prep, numCores, p)
	if err != nil {
		return nil, err
	}
	select {
	case <-e.gate:
	case <-ctx.Done():
	}
	return base, nil
}

// TestMapTruncatedByBudget pins the local truncation flag: a run the
// WithBudget deadline cuts short is marked Truncated, a run that finishes is
// not, and the flag stays out of the Summary encoding, which is identical
// for both runs.
func TestMapTruncatedByBudget(t *testing.T) {
	gate := make(chan struct{})
	search.Register("slowed-local", func() search.Engine { return slowedEngine{gate: gate} })
	d := fig5Design(t)

	cut, err := noc.Map(context.Background(), d, noc.WithEngine("slowed-local"), noc.WithBudget(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Truncated() {
		t.Error("a run the budget cut short is not marked Truncated")
	}
	close(gate)
	done, err := noc.Map(context.Background(), d, noc.WithEngine("slowed-local"), noc.WithBudget(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if done.Truncated() {
		t.Error("a run that finished before its deadline is marked Truncated")
	}
	a, err := json.Marshal(cut.Summary)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(done.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) || strings.Contains(string(a), "truncated") {
		t.Errorf("Summary encodings differ or carry the flag:\n%s\n%s", a, b)
	}
}
