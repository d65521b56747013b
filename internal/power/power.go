// Package power models NoC power consumption and the dynamic voltage and
// frequency scaling (DVS/DFS) evaluation of Section 6.4. Following the
// paper's conservative scaling model ([24]), the square of the supply
// voltage scales linearly with frequency, so dynamic power P ∝ f·V² ∝ f².
//
// When the SoC switches use-cases and the switching time is large (hundreds
// of microseconds to milliseconds), the NoC frequency and voltage can be
// re-scaled to the minimum that still satisfies the running use-case's
// constraints on the already-fabricated topology and placement. The package
// finds those per-use-case minimum frequencies by re-running the
// configuration phase (core.Evaluator.Evaluate) over a frequency grid.
package power

import (
	"fmt"

	"nocmap/internal/core"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// Grid is the frequency search grid in MHz.
type Grid struct {
	LoMHz   float64
	HiMHz   float64
	StepMHz float64
}

// DefaultGrid spans 25 MHz to 2 GHz in 25 MHz steps.
func DefaultGrid() Grid { return Grid{LoMHz: 25, HiMHz: 2000, StepMHz: 25} }

func (g Grid) validate() error {
	if g.LoMHz <= 0 || g.HiMHz < g.LoMHz || g.StepMHz <= 0 {
		return fmt.Errorf("power: invalid grid %+v", g)
	}
	return nil
}

// steps returns the grid points, ascending.
func (g Grid) steps() []float64 {
	var out []float64
	for f := g.LoMHz; f <= g.HiMHz+1e-9; f += g.StepMHz {
		out = append(out, f)
	}
	return out
}

// feasibleAt reports whether the use-cases can be configured on the fixed
// mapping at frequency f.
func feasibleAt(prep *usecase.Prepared, numCores int, m *core.Mapping, f float64) bool {
	ev, err := core.NewEvaluator(prep, numCores, m.Topology, m.Params.WithFrequency(f))
	if err != nil {
		return false
	}
	_, err = ev.Evaluate(m.CoreSwitch, m.CoreNI)
	return err == nil
}

// MinFeasibleFrequency binary-searches the grid for the lowest frequency at
// which the given use-cases can be configured on the fixed mapping.
// Feasibility is monotone in frequency (higher frequency raises per-slot
// bandwidth and loosens latency budgets).
func MinFeasibleFrequency(prep *usecase.Prepared, numCores int, m *core.Mapping, g Grid) (float64, error) {
	if err := g.validate(); err != nil {
		return 0, err
	}
	pts := g.steps()
	lo, hi := 0, len(pts)-1
	if !feasibleAt(prep, numCores, m, pts[hi]) {
		return 0, fmt.Errorf("power: infeasible even at %.0f MHz", pts[hi])
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if feasibleAt(prep, numCores, m, pts[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return pts[lo], nil
}

// soloPrep wraps one use-case as a standalone prepared set.
func soloPrep(u *traffic.UseCase) *usecase.Prepared {
	return &usecase.Prepared{
		UseCases:    []*traffic.UseCase{u},
		Groups:      [][]int{{0}},
		GroupOf:     []int{0},
		NumOriginal: 1,
	}
}

// PerUseCaseFrequencies finds, for every use-case of the mapping's design,
// the minimum NoC frequency at which that use-case alone is feasible on the
// fixed topology and placement.
func PerUseCaseFrequencies(m *core.Mapping, numCores int, g Grid) ([]float64, error) {
	out := make([]float64, len(m.Prep.UseCases))
	for i, u := range m.Prep.UseCases {
		f, err := MinFeasibleFrequency(soloPrep(u), numCores, m, g)
		if err != nil {
			return nil, fmt.Errorf("use-case %q: %w", u.Name, err)
		}
		out[i] = f
	}
	return out, nil
}

// Dynamic returns the relative dynamic power at frequency f normalized to
// reference frequency fRef: (f/fRef)² under the conservative V² ∝ f model.
func Dynamic(f, fRef float64) float64 {
	if fRef <= 0 {
		return 0
	}
	r := f / fRef
	return r * r
}

// DVSSavings computes the fractional power saving of per-use-case DVS/DFS
// versus running every use-case at the fixed design frequency (the maximum
// of the per-use-case minima). Use-cases are weighted equally, as in the
// paper's evaluation.
func DVSSavings(freqs []float64) float64 {
	if len(freqs) == 0 {
		return 0
	}
	fmax := 0.0
	for _, f := range freqs {
		if f > fmax {
			fmax = f
		}
	}
	if fmax == 0 {
		return 0
	}
	var sum float64
	for _, f := range freqs {
		sum += Dynamic(f, fmax)
	}
	return 1 - sum/float64(len(freqs))
}

// Watts estimates absolute NoC power for reporting: a switches-only model
// where one 6-port Æthereal-class switch dissipates ≈10 mW at 500 MHz in
// 0.13 µm, scaled by (f/500)². Only relative numbers enter the paper's
// figures; the absolute anchor makes reports readable.
func Watts(switches int, freqMHz float64) float64 {
	const perSwitchAt500 = 0.010 // W
	return float64(switches) * perSwitchAt500 * Dynamic(freqMHz, 500)
}
