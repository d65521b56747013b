package main

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload end to end at a few ops, traced,
// and requires every check to pass and every metric to have a value.
func TestWorkloadsSmoke(t *testing.T) {
	small := sizes{workingSet: 48, memTier: 16, traceOps: 12, setupReps: 2, minOps: 8}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := &config{seed: 7, duration: time.Minute, maxOps: 20, trace: true, workDir: dir, sz: small}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := execute(ctx, w, cfg, filepath.Join(dir, "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if res.tally.failed > 0 {
				t.Fatalf("%d of %d checks failed: %s", res.tally.failed, res.tally.attempted, strings.Join(res.tally.errs, "; "))
			}
			if len(res.out.ops) != cfg.maxOps || res.nReplay == 0 {
				t.Errorf("%d ops measured, %d replayed; want %d and some", len(res.out.ops), res.nReplay, cfg.maxOps)
			}
			for i, o := range res.out.ops {
				if o.idx != i {
					t.Fatalf("op %d ran as index %d: the indices that ran are not 0..n-1", i, o.idx)
				}
			}
			e2e := e2eValues(w, res.out)
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					v, ok := e2e[d.name]
					if !ok {
						v, ok = res.values[d.name]
					}
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v (present %t)", d.name, v, ok)
					}
				}
			}
			for _, d := range endToEnd {
				if e2e[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, e2e[d.name])
				}
			}
		})
	}
}
