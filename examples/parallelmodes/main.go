// Parallel-mode exploration: how many use-cases can run concurrently on a
// fixed NoC, and at what frequency (the trade-off of Figure 7(c)). The NoC
// is designed once for the individual use-cases; compound modes of growing
// width are then configured on the fixed design at increasing frequencies.
package main

import (
	"fmt"
	"log"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/power"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

func main() {
	d, err := bench.Synthetic(bench.SpreadSpec(10, 7))
	if err != nil {
		log.Fatal(err)
	}
	prep, err := usecase.Prepare(d)
	if err != nil {
		log.Fatal(err)
	}
	p := core.DefaultParams()
	res, err := core.Map(prep, d.NumCores(), p)
	if err != nil {
		log.Fatal(err)
	}
	m := res.Mapping
	fmt.Printf("base design: %s for %d use-cases at %.0f MHz\n\n", m.Topology, len(d.UseCases), p.FreqMHz)

	grid := power.Grid{LoMHz: 50, HiMHz: 4000, StepMHz: 50}
	fmt.Printf("%10s %14s %16s\n", "parallel", "min freq MHz", "relative power")
	base := 0.0
	for k := 1; k <= 4; k++ {
		comp := traffic.Combine(fmt.Sprintf("parallel-%d", k), d.UseCases[:k])
		solo := usecase.Single(comp)
		f, err := power.MinFeasibleFrequency(solo, d.NumCores(), m, grid)
		if err != nil {
			fmt.Printf("%10d %14s %16s\n", k, "infeasible", "-")
			continue
		}
		if base == 0 {
			base = f
		}
		fmt.Printf("%10d %14.0f %15.1fx\n", k, f, power.Dynamic(f, base))
	}
	fmt.Println("\nrunning more use-cases in parallel demands a superlinear power budget (P ∝ f²);")
	fmt.Println("the designer picks the parallelism/frequency point the product needs.")
}
