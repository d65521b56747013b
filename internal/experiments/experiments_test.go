package experiments

import (
	"testing"

	"nocmap/internal/bench"
)

// The experiment runners are exercised on reduced sweeps so the unit-test
// suite stays fast; the full sweeps run from cmd/nocbench and perfbench.

func TestFig6SyntheticShapes(t *testing.T) {
	for _, class := range []bench.Class{bench.Spread, bench.Bottleneck} {
		cs, err := Fig6Synthetic(class, []int{2, 10})
		if err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		if len(cs) != 2 {
			t.Fatalf("%v: %d points", class, len(cs))
		}
		for _, c := range cs {
			if c.OursSwitches <= 0 {
				t.Errorf("%v %s: proposed method produced no mapping", class, c.Label)
			}
			if !c.WCFeasible {
				t.Errorf("%v %s: WC infeasible at small use-case counts", class, c.Label)
			}
			if c.Normalized > 1.0+1e-9 {
				t.Errorf("%v %s: normalized %v > 1 — ours larger than WC", class, c.Label, c.Normalized)
			}
		}
		// The methodology's key claim: the advantage grows with use-cases.
		if cs[1].Normalized > cs[0].Normalized+1e-9 {
			t.Errorf("%v: normalized count grew from %v to %v between 2 and 10 use-cases",
				class, cs[0].Normalized, cs[1].Normalized)
		}
	}
}

func TestFig7aShape(t *testing.T) {
	pts, err := Fig7a([]float64{300, 500, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if !p.Feasible {
			t.Fatalf("D1 infeasible at %.0f MHz", p.FreqMHz)
		}
	}
	// More frequency never needs more switches.
	if pts[0].Switches < pts[1].Switches || pts[1].Switches < pts[2].Switches {
		t.Errorf("switch counts not non-increasing: %d %d %d",
			pts[0].Switches, pts[1].Switches, pts[2].Switches)
	}
}

func TestFig7cMonotone(t *testing.T) {
	pts, err := Fig7c(3)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range pts {
		if !p.Feasible {
			t.Fatalf("parallel=%d infeasible", p.Parallel)
		}
		if p.FreqMHz < prev {
			t.Errorf("required frequency fell from %v to %v at k=%d", prev, p.FreqMHz, p.Parallel)
		}
		prev = p.FreqMHz
	}
}

func TestFig7bSavingsPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("full D1-D4 DVS search in -short mode")
	}
	rs, err := Fig7b()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		if r.Savings <= 0.1 || r.Savings >= 0.9 {
			t.Errorf("%s: savings %.2f implausible", r.Label, r.Savings)
		}
		if len(r.PerUseCaseMHz) == 0 || r.FDesignMHz <= 0 {
			t.Errorf("%s: incomplete result %+v", r.Label, r)
		}
	}
}

func TestSec62ExtremesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("40-use-case WC searches in -short mode")
	}
	es, err := Sec62Extremes()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 {
		t.Fatalf("rows = %d", len(es))
	}
	// D3: both feasible, ours far smaller.
	if !es[0].WCFeasible || es[0].OursCount*2 > es[0].WCCount {
		t.Errorf("D3 extreme wrong: %+v", es[0])
	}
	// 40-use-case synthetics: ours small, WC infeasible.
	for _, e := range es[1:] {
		if e.OursCount <= 0 || e.OursCount > 12 {
			t.Errorf("%s: ours = %d switches, want small", e.Label, e.OursCount)
		}
		if e.WCFeasible {
			t.Errorf("%s: WC should be infeasible at 40 use-cases, got %d switches", e.Label, e.WCCount)
		}
	}
}
