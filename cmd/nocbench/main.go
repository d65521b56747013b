// Command nocbench regenerates the tables and figures of the paper's
// evaluation (Section 6). Each figure prints as an aligned text table whose
// rows correspond to the points/bars of the original plot. The benchmark
// that times the mapper and pins these figures is perfbench
// (bash perfbench/run.sh).
//
// Usage:
//
//	nocbench          # all figures
//	nocbench -fig 6a  # one of: 6a 6b 6c 7a 7b 7c 62 headline engines topology
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"nocmap/internal/experiments"
	"nocmap/pkg/noc"
)

var (
	seed   = flag.Int64("seed", 1, "base PRNG seed for the engines table")
	seeds  = flag.Int("seeds", 4, "multi-start annealers in the portfolio engine")
	budget = flag.Duration("budget", 0, "per-run job deadline for the engines table (0 = none)")
)

// figures lists the valid -fig values in presentation order.
var figures = []string{"6a", "6b", "6c", "7a", "7b", "7c", "62", "headline", "engines", "topology"}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(figures, "|")+"|all")
	flag.Parse()

	if *fig != "all" && !slices.Contains(figures, *fig) {
		fmt.Fprintf(os.Stderr, "nocbench: unknown -fig %q; valid figures: %s, all\n",
			*fig, strings.Join(figures, ", "))
		os.Exit(2)
	}

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "nocbench: figure %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("6a", fig6a)
	run("6b", func() error { return fig6bc("Sp") })
	run("6c", func() error { return fig6bc("Bot") })
	run("7a", fig7a)
	run("7b", fig7b)
	run("7c", fig7c)
	run("62", sec62)
	run("headline", headline)
	run("engines", engines)
	run("topology", topologyFigure)
}

func printComparisons(title string, cs []experiments.Comparison) {
	fmt.Printf("\n%s\n", title)
	fmt.Printf("%-8s %12s %12s %12s\n", "point", "ours", "WC method", "normalized")
	for _, c := range cs {
		wc := "infeasible"
		norm := "-"
		if c.WCFeasible {
			wc = fmt.Sprintf("%s (%d)", c.WCDim, c.WCSwitches)
			norm = fmt.Sprintf("%.3f", c.Normalized)
		}
		fmt.Printf("%-8s %12s %12s %12s\n", c.Label,
			fmt.Sprintf("%s (%d)", c.OursDim, c.OursSwitches), wc, norm)
	}
}

func fig6a() error {
	cs, err := experiments.Fig6a()
	if err != nil {
		return err
	}
	printComparisons("Figure 6(a): normalized switch count, SoC designs (500 MHz, 32-bit)", cs)
	return nil
}

func fig6bc(class string) error {
	sweep := append(experiments.DefaultSweep(), 40)
	cs, err := experiments.Fig6SyntheticNamed(class, sweep)
	if err != nil {
		return err
	}
	name := "6(b) Spread"
	if class == "Bot" {
		name = "6(c) Bottleneck"
	}
	printComparisons(fmt.Sprintf("Figure %s: normalized switch count vs use-cases", name), cs)
	return nil
}

func fig7a() error {
	pts, err := experiments.Fig7a(experiments.DefaultParetoFreqs())
	if err != nil {
		return err
	}
	fmt.Printf("\nFigure 7(a): area-frequency trade-off, design D1\n")
	fmt.Printf("%10s %10s %10s %12s\n", "freq MHz", "feasible", "switches", "area mm^2")
	for _, p := range pts {
		if !p.Feasible {
			fmt.Printf("%10.0f %10s %10s %12s\n", p.FreqMHz, "no", "-", "-")
			continue
		}
		fmt.Printf("%10.0f %10s %10d %12.3f\n", p.FreqMHz, "yes", p.Switches, p.AreaMM2)
	}
	return nil
}

func fig7b() error {
	rs, err := experiments.Fig7b()
	if err != nil {
		return err
	}
	fmt.Printf("\nFigure 7(b): DVS/DFS power savings (P ∝ f·V², V² ∝ f)\n")
	fmt.Printf("%-6s %14s %12s\n", "design", "f_design MHz", "savings %")
	var sum float64
	for _, r := range rs {
		fmt.Printf("%-6s %14.0f %12.1f\n", r.Label, r.FDesignMHz, r.Savings*100)
		sum += r.Savings
	}
	fmt.Printf("%-6s %14s %12.1f\n", "avg", "", sum/float64(len(rs))*100)
	return nil
}

func fig7c() error {
	pts, err := experiments.Fig7c(4)
	if err != nil {
		return err
	}
	fmt.Printf("\nFigure 7(c): required frequency vs parallel use-cases (20-core 10-use-case Sp)\n")
	fmt.Printf("%10s %14s\n", "parallel", "freq MHz")
	for _, p := range pts {
		if !p.Feasible {
			fmt.Printf("%10d %14s\n", p.Parallel, "infeasible")
			continue
		}
		fmt.Printf("%10d %14.0f\n", p.Parallel, p.FreqMHz)
	}
	return nil
}

func sec62() error {
	es, err := experiments.Sec62Extremes()
	if err != nil {
		return err
	}
	fmt.Printf("\nSection 6.2 extremes\n")
	fmt.Printf("%-10s %14s %14s\n", "design", "ours", "WC method")
	for _, e := range es {
		wc := "infeasible <=20x20"
		if e.WCFeasible {
			wc = fmt.Sprintf("%s (%d)", e.WCDim, e.WCCount)
		}
		fmt.Printf("%-10s %14s %14s\n", e.Label, fmt.Sprintf("%s (%d)", e.OursDim, e.OursCount), wc)
	}
	return nil
}

func engines() error {
	designs, err := experiments.EngineDesigns()
	if err != nil {
		return err
	}
	opts := experiments.DefaultEngineOptions()
	opts.Seed = *seed
	opts.Seeds = *seeds
	opts.Budget = *budget
	rows, err := experiments.EngineComparison(context.Background(), designs, opts)
	if err != nil {
		return err
	}
	fmt.Printf("\nSearch-engine comparison (%s; seed %d)\n",
		strings.Join(noc.Engines(), " vs "), opts.Seed)
	fmt.Printf("%-22s %-10s %10s %10s %10s %8s %8s %12s\n",
		"design", "engine", "switches", "avg hops", "max util", "bound", "gap", "elapsed")
	for _, r := range rows {
		gap := fmt.Sprintf("%.1f%%", r.Gap*100)
		if r.BoundExact {
			gap = "proven"
		}
		fmt.Printf("%-22s %-10s %10s %10.2f %9.1f%% %8d %8s %12s\n",
			r.Design, r.Engine, fmt.Sprintf("%s (%d)", r.Dim, r.Switches),
			r.AvgHops, r.MaxUtil*100, r.LowerBound, gap, r.Elapsed.Round(time.Millisecond))
	}
	return nil
}

func topologyFigure() error {
	printTopoRows := func(title string, rows []experiments.TopologyRow) {
		fmt.Printf("\n%s\n", title)
		fmt.Printf("%-22s %14s %10s %14s %10s %8s\n",
			"design", "mesh", "hops", "torus", "hops", "ratio")
		for _, r := range rows {
			fmt.Printf("%-22s %14s %10.2f %14s %10.2f %8.3f\n",
				r.Design,
				fmt.Sprintf("%s (%d)", r.MeshDim, r.MeshSwitches), r.MeshHops,
				fmt.Sprintf("%s (%d)", r.TorusDim, r.TorusSwitches), r.TorusHops,
				r.Ratio)
		}
	}
	designs, err := experiments.TopologyDesigns()
	if err != nil {
		return err
	}
	rows, err := experiments.TopologyComparison(designs)
	if err != nil {
		return err
	}
	printTopoRows("Topology comparison: smallest feasible mesh vs torus (1 core/switch)", rows)
	for _, class := range experiments.SyntheticClassNames() {
		rows, err := experiments.TopologySweepNamed(class, experiments.DefaultSweep())
		if err != nil {
			return err
		}
		printTopoRows(fmt.Sprintf("Topology sweep (%s): mesh vs torus over use-cases", class), rows)
	}
	return nil
}

func headline() error {
	h, err := experiments.RunHeadline()
	if err != nil {
		return err
	}
	fmt.Printf("\nHeadline (abstract): area reduction %.1f%% (over %d designs with feasible WC), power savings %.1f%%\n",
		h.AreaReductionPct, h.Points, h.PowerSavingsPct)
	return nil
}
