package power

import (
	"math"
	"testing"

	"nocmap/internal/core"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

func TestDynamicQuadratic(t *testing.T) {
	if got := Dynamic(500, 500); got != 1 {
		t.Errorf("Dynamic(500,500) = %v", got)
	}
	if got := Dynamic(250, 500); got != 0.25 {
		t.Errorf("Dynamic(250,500) = %v, want 0.25 (P ∝ f²)", got)
	}
	if got := Dynamic(100, 0); got != 0 {
		t.Errorf("zero reference should yield 0, got %v", got)
	}
}

func TestDVSSavings(t *testing.T) {
	if got := DVSSavings(nil); got != 0 {
		t.Errorf("empty savings = %v", got)
	}
	// All use-cases at the max frequency: no savings.
	if got := DVSSavings([]float64{500, 500}); got != 0 {
		t.Errorf("uniform savings = %v, want 0", got)
	}
	// Half the use-cases at half frequency: 1 - (1 + 0.25)/2 = 0.375.
	if got := DVSSavings([]float64{500, 250}); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("savings = %v, want 0.375", got)
	}
	if got := DVSSavings([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero savings = %v", got)
	}
}

func TestGridValidate(t *testing.T) {
	bad := []Grid{
		{LoMHz: 0, HiMHz: 100, StepMHz: 10},
		{LoMHz: 200, HiMHz: 100, StepMHz: 10},
		{LoMHz: 100, HiMHz: 200, StepMHz: 0},
	}
	for _, g := range bad {
		if _, err := MinFeasibleFrequency(nil, 0, nil, g); err == nil {
			t.Errorf("grid %+v accepted", g)
		}
	}
}

func fixture(t *testing.T) (*core.Mapping, int) {
	t.Helper()
	light := &traffic.UseCase{Name: "light", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 60},
	}}
	heavy := &traffic.UseCase{Name: "heavy", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 900},
		{Src: 2, Dst: 1, BandwidthMBs: 700},
	}}
	d := &traffic.Design{Name: "d", Cores: traffic.MakeCores(3),
		UseCases: []*traffic.UseCase{light, heavy}}
	pr, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(pr, 3, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return res.Mapping, 3
}

func TestPerUseCaseFrequencies(t *testing.T) {
	m, n := fixture(t)
	freqs, err := PerUseCaseFrequencies(m, n, Grid{LoMHz: 25, HiMHz: 1000, StepMHz: 25})
	if err != nil {
		t.Fatalf("PerUseCaseFrequencies: %v", err)
	}
	if len(freqs) != 2 {
		t.Fatalf("freqs = %v", freqs)
	}
	if freqs[0] >= freqs[1] {
		t.Errorf("light use-case needs %v MHz >= heavy %v MHz", freqs[0], freqs[1])
	}
	// The light use-case (60 MB/s on one flow) should run far below 500 MHz.
	if freqs[0] > 200 {
		t.Errorf("light use-case min frequency = %v MHz, expected <= 200", freqs[0])
	}
	// Savings must be positive given the asymmetry.
	if s := DVSSavings(freqs); s <= 0.2 {
		t.Errorf("savings = %v, want > 0.2", s)
	}
}

func TestMinFeasibleFrequencyMonotoneFeasibility(t *testing.T) {
	m, n := fixture(t)
	g := Grid{LoMHz: 25, HiMHz: 1000, StepMHz: 25}
	heavy := m.Prep.UseCases[1]
	fmin, err := MinFeasibleFrequency(usecase.Single(heavy), n, m, g)
	if err != nil {
		t.Fatal(err)
	}
	// Feasible exactly at and above the returned frequency.
	if !feasibleAt(usecase.Single(heavy), n, m, fmin) {
		t.Error("returned frequency not feasible")
	}
	if fmin > g.LoMHz && feasibleAt(usecase.Single(heavy), n, m, fmin-g.StepMHz) {
		t.Error("frequency below minimum is feasible — search not tight")
	}
}

func TestMinFeasibleFrequencyInfeasible(t *testing.T) {
	m, n := fixture(t)
	mega := &traffic.UseCase{Name: "mega", Flows: []traffic.Flow{
		{Src: 0, Dst: 1, BandwidthMBs: 1e6},
	}}
	if _, err := MinFeasibleFrequency(usecase.Single(mega), n, m, Grid{LoMHz: 100, HiMHz: 400, StepMHz: 100}); err == nil {
		t.Error("impossible demand accepted")
	}
}

func TestWatts(t *testing.T) {
	if got := Watts(4, 500); math.Abs(got-0.04) > 1e-12 {
		t.Errorf("Watts(4,500) = %v, want 0.04", got)
	}
	if Watts(4, 1000) != 4*Watts(1, 1000) {
		t.Error("Watts not linear in switches")
	}
	if Watts(1, 1000) != 0.04 {
		t.Errorf("Watts(1,1000) = %v, want 0.04 (quadratic in f)", Watts(1, 1000))
	}
}
