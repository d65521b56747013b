// Command nocmap runs the full multi-use-case mapping methodology on a
// design given in the JSON interchange format and reports the resulting NoC:
// topology, placement, per-use-case configurations, verification status,
// area and power estimates. With -vhdl/-config/-placement it writes the
// back-end artifacts. It is a thin shell over the public SDK (pkg/noc).
//
// Usage:
//
//	nocmap -in design.json [-engine <name>] [-seeds 4]
//	       [-topology mesh|torus] [-budget 30s] [-freq 500]
//	       [-slots 64] [-population 16] [-generations 24]
//	       [-nodes 500000] [-vhdl noc.vhd] [-config prefix]
//	       [-placement place.txt] [-progress]
//
// The engine roster comes from the search registry (noc.Engines()): the
// greedy constructor, the annealing engines (anneal, portfolio), the
// population engines (ga, pso, abc) and the exact branch-and-bound
// lower-bound engine (exact). Every run reports a lower bound on the
// feasible switch count and the resulting optimality gap; the exact engine
// turns that bound into a proof.
//
// With -server URL the design is mapped by a running nocserved daemon
// instead of in-process, so repeated invocations share its result cache;
// -timeout bounds how long an unresponsive daemon may stall the call.
// Adding -stream switches to serve-then-improve mode: the daemon's instant
// greedy result and every strictly better incumbent print to stderr as they
// land, and the final result prints as usual when the job ends. -budget is
// the job deadline in both modes; a daemon serves an answer it cut short
// without storing it, and the verdict says so.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"nocmap/pkg/noc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code (0 ok, 1 runtime failure, 2 usage error), writing all
// output to the given streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "design JSON file (required)")
	engine := fs.String("engine", "greedy",
		"search engine: "+strings.Join(noc.Engines(), "|"))
	topoFlag := fs.String("topology", "",
		"interconnect family: "+strings.Join(noc.TopologyKinds(), "|")+" (default: the design's topology tag, else mesh)")
	seed := fs.Int64("seed", 1, "base PRNG seed for the anneal/portfolio engines")
	seeds := fs.Int("seeds", 4, "multi-start annealers in the portfolio engine")
	budget := fs.Duration("budget", 0, "job deadline: wall-clock bound of the whole search (0 = none)")
	freq := fs.Float64("freq", 500, "NoC frequency in MHz")
	slots := fs.Int("slots", 64, "TDMA slot-table size")
	maxDim := fs.Int("maxdim", 20, "maximum mesh dimension")
	population := fs.Int("population", 0, "population size for the ga/pso/abc engines (0 = engine default 16)")
	generations := fs.Int("generations", 0, "generations per fabric size for the ga/pso/abc engines (0 = engine default 24)")
	nodes := fs.Int("nodes", 0, "deterministic node budget for the exact engine (0 = default 500000)")
	progress := fs.Bool("progress", false, "stream search progress events to stderr")
	vhdl := fs.String("vhdl", "", "write structural VHDL to this file")
	config := fs.String("config", "", "write per-use-case slot-table images to <prefix>-<usecase>.cfg")
	placement := fs.String("placement", "", "write core placement table to this file")
	simulate := fs.Bool("sim", false, "validate every configuration with the slot-accurate simulator")
	server := fs.String("server", "", "delegate to a running nocserved at this base URL (e.g. http://localhost:8080)")
	stream := fs.Bool("stream", false,
		"serve-then-improve: print the daemon's instant greedy result, then stream each strictly better incumbent as the background engine finds it (requires -server)")
	timeout := fs.Duration("timeout", 0, "give up on an unresponsive -server after this long (0 = wait forever)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *in == "" {
		fmt.Fprintln(stderr, "nocmap: -in is required: pass the design JSON file to map")
		fs.Usage()
		return 2
	}
	if !slices.Contains(noc.Engines(), *engine) {
		fmt.Fprintf(stderr, "nocmap: unknown -engine %q; valid engines: %s\n",
			*engine, strings.Join(noc.Engines(), ", "))
		return 2
	}
	if v := *topoFlag; v != "" && !slices.Contains(noc.TopologyKinds(), v) {
		fmt.Fprintf(stderr, "nocmap: unknown -topology %q; valid choices: %s\n",
			v, strings.Join(noc.TopologyKinds(), ", "))
		return 2
	}
	// The option set shared by local and remote runs; the flags the wire form
	// cannot carry (-progress) stay local-only below.
	common := []noc.Option{
		noc.WithEngine(*engine),
		noc.WithTopology(*topoFlag),
		noc.WithSeed(*seed),
		noc.WithSeeds(*seeds),
		noc.WithBudget(*budget),
		noc.WithFrequencyMHz(*freq),
		noc.WithSlotTableSize(*slots),
		noc.WithMaxMeshDim(*maxDim),
	}
	if *population > 0 {
		common = append(common, noc.WithPopulation(*population))
	}
	if *generations > 0 {
		common = append(common, noc.WithGenerations(*generations))
	}
	if *nodes > 0 {
		common = append(common, noc.WithExactNodes(*nodes))
	}

	if *server != "" {
		if *vhdl != "" || *config != "" || *placement != "" || *simulate {
			fmt.Fprintln(stderr, "nocmap: -vhdl/-config/-placement/-sim need the full mapping and run locally; drop -server to use them")
			return 2
		}
		if *progress {
			fmt.Fprintln(stderr, "nocmap: -progress streams from in-process engines and runs locally; drop -server to use it")
			return 2
		}
		remote := runRemote
		if *stream {
			remote = runRemoteStream
		}
		if err := remote(stdout, stderr, *server, *timeout, *in, *freq, common); err != nil {
			fmt.Fprintln(stderr, "nocmap:", err)
			return 1
		}
		return 0
	}
	if *stream {
		fmt.Fprintln(stderr, "nocmap: -stream consumes a daemon's event stream; pass -server URL to use it")
		return 2
	}
	if err := runLocal(stdout, stderr, *in, *freq, *slots, *progress, *vhdl, *config, *placement, *simulate, common); err != nil {
		fmt.Fprintln(stderr, "nocmap:", err)
		return 1
	}
	return 0
}

func runLocal(stdout, stderr io.Writer, in string, freq float64, slots int,
	progress bool, vhdl, config, placement string, simulate bool, common []noc.Option) error {
	d, err := noc.LoadDesignFile(in)
	if err != nil {
		return err
	}
	prep, err := noc.Prepare(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "design %q: %d cores, %d use-cases (%d compound generated), %d configuration groups\n",
		d.Name, d.NumCores(), len(prep.UseCases), len(prep.UseCases)-prep.NumOriginal, len(prep.Groups))

	opts := append([]noc.Option(nil), common...)
	if progress {
		mapStart := time.Now()
		opts = append(opts, noc.WithProgress(func(e noc.Event) {
			line := fmt.Sprintf("progress: [+%.3fs] %s %s %s cost=%.1f",
				time.Since(mapStart).Seconds(), e.Engine, e.Stage, e.Dim, e.Cost)
			if e.Moves > 0 {
				line += fmt.Sprintf(" moves=%d accepted=%d", e.Moves, e.Accepted)
			}
			fmt.Fprintln(stderr, line)
		}))
	}
	res, err := noc.Map(context.Background(), d, opts...)
	if err != nil {
		return err
	}
	engine := res.Engine()
	if res.Truncated() {
		engine += ", truncated by the deadline"
	}
	if err := printSummary(stdout, stderr, &res.Summary, engine, freq); err != nil {
		return err
	}

	if simulate {
		problems, err := res.SimVerify(16 * slots)
		if err != nil {
			return err
		}
		if len(problems) > 0 {
			for _, pr := range problems {
				fmt.Fprintln(stderr, "sim:", pr)
			}
			return fmt.Errorf("%d simulation problems", len(problems))
		}
		fmt.Fprintln(stdout, "simulation: delivered bandwidth and latency match the guarantees")
	}

	if vhdl != "" {
		if err := writeFile(vhdl, res.WriteVHDL); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", vhdl)
	}
	if config != "" {
		for uc, u := range res.UseCases {
			name := fmt.Sprintf("%s-%s.cfg", config, u.Name)
			ucCopy := uc
			if err := writeFile(name, func(w io.Writer) error { return res.WriteConfig(w, ucCopy) }); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "wrote", name)
		}
	}
	if placement != "" {
		if err := writeFile(placement, res.WritePlacement); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", placement)
	}
	return nil
}

// printSummary prints the summary lines local and remote runs share: the
// fabric and engine, the load stats, the switch-count bound, the
// verification verdict (each violation to stderr, returned as an error) and
// the area and power estimates.
func printSummary(stdout, stderr io.Writer, r *noc.Summary, engine string, freq float64) error {
	fmt.Fprintf(stdout, "mapped onto %s at %.0f MHz (engine %s)\n", r.Fabric(), freq, engine)
	fmt.Fprintf(stdout, "stats: max link utilization %.1f%%, avg mesh hops %.2f, %d slot entries reserved\n",
		r.MaxLinkUtil*100, r.AvgMeshHops, r.SlotsReserved)
	fmt.Fprintf(stdout, "bound: any feasible mapping needs >= %d switches (%s)", r.LowerBoundSwitches, r.BoundSource)
	if r.BoundExact {
		fmt.Fprintln(stdout, "; this mapping is proven optimal in switch count")
	} else {
		fmt.Fprintf(stdout, "; optimality gap %.1f%%\n", r.OptimalityGap*100)
	}
	if len(r.Violations) > 0 {
		for _, v := range r.Violations {
			fmt.Fprintln(stderr, "verify:", v)
		}
		return fmt.Errorf("%d verification violations", len(r.Violations))
	}
	fmt.Fprintln(stdout, "verification: all invariants hold")
	fmt.Fprintf(stdout, "area: %.3f mm^2 (switches, 0.13um model); power: %.1f mW at %.0f MHz\n",
		r.AreaMM2, r.PowerMW, freq)
	return nil
}

func writeFile(name string, fn func(io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
