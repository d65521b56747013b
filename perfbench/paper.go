package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/experiments"
	"nocmap/internal/usecase"
)

// The paper-figure gate: every run recomputes the values of the paper's
// evaluation — Fig. 6a-c, Fig. 7a-c, the §6.2 extremes, the headline
// numbers and the A1-A3 ablations — and compares them exactly with the
// values pinned in testdata/paper.json, which reproduce the seed record
// BENCH_seed.json. A drift fails the run.

//go:embed testdata/paper.json
var paperJSON []byte

// paperFile is the pinned record. Values are keyed "<figure>.<metric>" with
// the metric names of BENCH_seed.json; -1 marks an infeasible point.
type paperFile struct {
	Note   string             `json:"note"`
	Values map[string]float64 `json:"values"`
}

func pinnedPaper() (map[string]float64, error) {
	var f paperFile
	if err := json.Unmarshal(paperJSON, &f); err != nil {
		return nil, fmt.Errorf("paper pins: %w", err)
	}
	return f.Values, nil
}

// paperFigures computes every pinned value, two figures at a time.
func paperFigures() (map[string]float64, error) {
	jobs := []func(put func(string, float64)) error{
		func(put func(string, float64)) error {
			cs, err := experiments.Fig6a()
			putComparisons(put, "fig6a", cs)
			return err
		},
		func(put func(string, float64)) error {
			cs, err := experiments.Fig6Synthetic(bench.Spread, experiments.DefaultSweep())
			putComparisons(put, "fig6b", cs)
			return err
		},
		func(put func(string, float64)) error {
			cs, err := experiments.Fig6Synthetic(bench.Bottleneck, experiments.DefaultSweep())
			putComparisons(put, "fig6c", cs)
			return err
		},
		func(put func(string, float64)) error {
			pts, err := experiments.Fig7a(experiments.DefaultParetoFreqs())
			for _, p := range pts {
				put(fmt.Sprintf("fig7a.mm2_at_%.0f", p.FreqMHz), orInfeasible(p.Feasible, p.AreaMM2))
			}
			return err
		},
		func(put func(string, float64)) error {
			rs, err := experiments.Fig7b()
			for _, r := range rs {
				put("fig7b.savings_pct_"+r.Label, r.Savings*100)
			}
			return err
		},
		func(put func(string, float64)) error {
			pts, err := experiments.Fig7c(4)
			for _, p := range pts {
				put(fmt.Sprintf("fig7c.mhz_par%d", p.Parallel), orInfeasible(p.Feasible, p.FreqMHz))
			}
			return err
		},
		func(put func(string, float64)) error {
			es, err := experiments.Sec62Extremes()
			for _, e := range es {
				label := metricLabel(e.Label)
				put("sec62.ours_"+label, float64(e.OursCount))
				put("sec62.wc_"+label, orInfeasible(e.WCFeasible, float64(e.WCCount)))
			}
			return err
		},
		func(put func(string, float64)) error {
			h, err := experiments.RunHeadline()
			put("headline.area_reduction_pct", h.AreaReductionPct)
			put("headline.power_savings_pct", h.PowerSavingsPct)
			return err
		},
		ablations,
	}
	var (
		mu   sync.Mutex
		out  = make(map[string]float64)
		errs []error
		wg   sync.WaitGroup
		next = make(chan int)
	)
	put := func(k string, v float64) {
		mu.Lock()
		out[k] = v
		mu.Unlock()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := jobs[i](put); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return nil, fmt.Errorf("paper figures: %v", errs[0])
	}
	return out, nil
}

// ablations are A1-A3 on the 10-use-case Spread design: the mapped-endpoint
// preference, unified slot allocation, and the TDMA table size.
func ablations(put func(string, float64)) error {
	d, err := bench.Synthetic(bench.SpreadSpec(10, experiments.SpFamilySeed))
	if err != nil {
		return err
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		return err
	}
	switches := func(mutate func(*core.Params)) float64 {
		p := core.DefaultParams()
		mutate(&p)
		res, err := core.Map(prep, d.NumCores(), p)
		if err != nil {
			return -1
		}
		return float64(res.Mapping.SwitchCount())
	}
	full := switches(func(*core.Params) {})
	put("a1.switches_full", full)
	put("a1.switches_no_preference", switches(func(p *core.Params) { p.DisableMappedPreference = true }))
	put("a2.switches_full", full)
	put("a2.switches_non_unified", switches(func(p *core.Params) { p.DisableUnifiedSlots = true }))
	for _, t := range []int{16, 32, 64, 128} {
		put(fmt.Sprintf("a3.switches_T%d", t), switches(func(p *core.Params) { p.SlotTableSize = t }))
	}
	return nil
}

func putComparisons(put func(string, float64), fig string, cs []experiments.Comparison) {
	for _, c := range cs {
		put(fig+".norm_"+metricLabel(c.Label), orInfeasible(c.WCFeasible, c.Normalized))
	}
}

func orInfeasible(feasible bool, v float64) float64 {
	if !feasible {
		return -1
	}
	return v
}

func metricLabel(s string) string { return strings.ReplaceAll(s, " ", "_") }

// checkPaper lists every pinned value the computed figures do not
// reproduce exactly, and every computed value nothing pins.
func checkPaper(pins, got map[string]float64) []string {
	var out []string
	for k, want := range pins {
		v, ok := got[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: not computed (pinned %v)", k, want))
		case v != want && !(math.IsNaN(v) && math.IsNaN(want)):
			out = append(out, fmt.Sprintf("%s = %v, pinned %v", k, v, want))
		}
	}
	for k, v := range got {
		if _, ok := pins[k]; !ok {
			out = append(out, fmt.Sprintf("%s = %v is not pinned", k, v))
		}
	}
	slices.Sort(out)
	return out
}
