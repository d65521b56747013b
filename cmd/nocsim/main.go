// Command nocsim maps a design and then exercises it on the slot-accurate
// simulator: per-use-case delivered bandwidth and worst-case latency, plus
// the reconfiguration cost matrix for every use-case switch. It is a thin
// shell over the public SDK (pkg/noc).
//
// Usage:
//
//	nocsim -in design.json [-topology mesh|torus] [-rotations 64]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"nocmap/pkg/noc"
)

func main() {
	in := flag.String("in", "", "design JSON file (required)")
	topo := flag.String("topology", "",
		"interconnect family: "+strings.Join(noc.TopologyKinds(), "|")+" (default: the design's topology tag, else mesh)")
	rotations := flag.Int("rotations", 64, "slot-table rotations to simulate")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *topo, *rotations); err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

func run(in, topo string, rotations int) error {
	d, err := noc.LoadDesignFile(in)
	if err != nil {
		return err
	}
	prep, err := noc.Prepare(d)
	if err != nil {
		return err
	}
	res, err := noc.Map(context.Background(), d, noc.WithTopology(topo))
	if err != nil {
		return err
	}
	p, err := res.Params()
	if err != nil {
		return err
	}
	cfg := noc.SimConfig{Slots: rotations * p.SlotTableSize, ReconfigCyclesPerEntry: 4}
	fmt.Printf("design %q on %s, simulating %d slots per use-case\n", d.Name, res.Fabric(), cfg.Slots)

	for uc := range prep.UseCases {
		r, err := res.Simulate(uc, cfg)
		if err != nil {
			return err
		}
		var worst, bound int
		var demanded, delivered float64
		for _, fs := range r.Flows {
			if fs.MaxLatencySlots > worst {
				worst = fs.MaxLatencySlots
			}
			if fs.AnalyticBoundSlots > bound {
				bound = fs.AnalyticBoundSlots
			}
			delivered += fs.DeliveredMBs
		}
		for _, fl := range prep.UseCases[uc].Flows {
			demanded += fl.BandwidthMBs
		}
		fmt.Printf("  %-16s conflicts=%d delivered=%.0f/%.0f MB/s worst-latency=%d slots (bound %d)\n",
			r.UseCase, r.Conflicts, delivered, demanded, worst, bound)
	}

	fmt.Println("reconfiguration cost (cycles) when switching row -> column:")
	fmt.Printf("%16s", "")
	for _, u := range prep.UseCases {
		fmt.Printf(" %10.10s", u.Name)
	}
	fmt.Println()
	for a := range prep.UseCases {
		fmt.Printf("%16.16s", prep.UseCases[a].Name)
		for b := range prep.UseCases {
			c, err := res.SwitchCost(a, b, cfg)
			if err != nil {
				return err
			}
			fmt.Printf(" %10d", c)
		}
		fmt.Println()
	}
	return nil
}
