package noc

import (
	"fmt"

	"nocmap/internal/bench"
)

// Benchmark returns one of the paper's SoC benchmark stand-ins by name:
// D1/D2 (set-top boxes with 4 and 20 use-cases) or D3/D4 (TV processors
// with 8 and 20 use-cases).
func Benchmark(name string) (*Design, error) { return bench.ByName(name) }

// SyntheticClasses lists the class names Synthetic accepts: "Sp" (spread
// traffic: every core talks to a few fixed peers) and "Bot" (bottleneck
// traffic: most streams touch a few hotspot cores).
func SyntheticClasses() []string { return bench.ClassNames() }

// Synthetic generates a synthetic benchmark design of the given class with
// the requested number of use-cases. A fixed seed reproduces the design;
// designs of one (class, seed) family are nested — the k-use-case design
// is a prefix of larger ones.
func Synthetic(class string, useCases int, seed int64) (*Design, error) {
	c, err := bench.ClassByName(class)
	if err != nil {
		return nil, fmt.Errorf("noc: %w", err)
	}
	return bench.Synthetic(c.SpecFor(useCases, seed))
}
