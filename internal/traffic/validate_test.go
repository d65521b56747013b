package traffic

import (
	"fmt"
	"math"
	"testing"
)

// validateReference is the map-based UseCase.Validate that the map-free
// version replaced: it checks the flows in order and remembers every pair
// in a set. Validate must return the same verdict and error text.
func validateReference(u *UseCase, numCores int) error {
	seen := make(map[PairKey]struct{}, len(u.Flows))
	for i, f := range u.Flows {
		if f.Src < 0 || int(f.Src) >= numCores || f.Dst < 0 || int(f.Dst) >= numCores {
			return fmt.Errorf("traffic: use-case %q flow %d: endpoint out of range [0,%d)", u.Name, i, numCores)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("traffic: use-case %q flow %d: self-flow on core %d", u.Name, i, f.Src)
		}
		if f.BandwidthMBs <= 0 || math.IsNaN(f.BandwidthMBs) || math.IsInf(f.BandwidthMBs, 0) {
			return fmt.Errorf("traffic: use-case %q flow %d: bandwidth %v not positive finite", u.Name, i, f.BandwidthMBs)
		}
		if f.MaxLatencyNS < 0 || math.IsNaN(f.MaxLatencyNS) {
			return fmt.Errorf("traffic: use-case %q flow %d: latency %v negative", u.Name, i, f.MaxLatencyNS)
		}
		k := f.Key()
		if _, dup := seen[k]; dup {
			return fmt.Errorf("traffic: use-case %q: duplicate flow %d->%d", u.Name, f.Src, f.Dst)
		}
		seen[k] = struct{}{}
	}
	return nil
}

// fuzzValues are the bandwidths and latencies a fuzzed flow picks from:
// ordinary values, the boundaries and every non-finite class.
var fuzzValues = []float64{1, 2.5, 0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 5e-324, math.Copysign(0, -1)}

// fuzzUseCase decodes four bytes per flow: source and destination as
// signed offsets from base, then a bandwidth and a latency picked from
// fuzzValues.
func fuzzUseCase(base int, data []byte) *UseCase {
	u := &UseCase{Name: "u"}
	for i := 0; i+4 <= len(data); i += 4 {
		u.Flows = append(u.Flows, Flow{
			Src:          CoreID(base + int(int8(data[i]))),
			Dst:          CoreID(base + int(int8(data[i+1]))),
			BandwidthMBs: fuzzValues[int(data[i+2])%len(fuzzValues)],
			MaxLatencyNS: fuzzValues[int(data[i+3])%len(fuzzValues)],
		})
	}
	return u
}

// flowBytes encodes flows for fuzzUseCase: src, dst, bandwidth index,
// latency index.
func flowBytes(flows ...[4]int8) []byte {
	var b []byte
	for _, f := range flows {
		b = append(b, byte(f[0]), byte(f[1]), byte(f[2]), byte(f[3]))
	}
	return b
}

// FuzzValidate holds UseCase.Validate to the map-based reference: the same
// nil/non-nil verdict and byte-identical error text on every input.
func FuzzValidate(f *testing.F) {
	ok, bad0, nan, inf, neg := int8(0), int8(2), int8(4), int8(5), int8(3)
	f.Add(4, 0, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{1, 2, ok, ok}))
	// A duplicate pair before a range error, and one after it.
	f.Add(3, 0, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{0, 1, 1, ok}, [4]int8{5, 0, ok, ok}))
	f.Add(3, 0, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{5, 0, ok, ok}, [4]int8{0, 1, ok, ok}))
	// A duplicate that is also a per-flow failure: the flow's own check wins.
	f.Add(3, 0, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{0, 1, bad0, ok}))
	f.Add(3, 0, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{2, 2, ok, ok}))
	f.Add(3, 0, flowBytes([4]int8{0, 1, nan, ok}))
	f.Add(3, 0, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{1, 0, inf, ok}))
	f.Add(3, 0, flowBytes([4]int8{0, 1, ok, neg}))
	f.Add(3, 0, flowBytes([4]int8{0, 1, ok, nan}))
	f.Add(3, 0, flowBytes([4]int8{-1, 1, ok, ok}))
	// Two repeated pairs: the one whose second copy comes first is named.
	f.Add(4, 0, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{2, 3, ok, ok}, [4]int8{2, 3, ok, ok}, [4]int8{0, 1, ok, ok}))
	// Past 64 cores the pairs are sorted: more flows than the stack buffer
	// holds, with and without a repeat, and a repeat among a few.
	var many [][4]int8
	for s := int8(0); s < 12; s++ {
		for d := int8(0); d < 12; d++ {
			if s != d {
				many = append(many, [4]int8{s, d, ok, ok})
			}
		}
	}
	f.Add(12, 0, flowBytes(many...))
	f.Add(200, 0, flowBytes(many...))
	f.Add(200, 0, flowBytes(append(many, [4]int8{7, 3, 1, ok})...))
	f.Add(65, 60, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{4, 1, ok, ok}, [4]int8{0, 1, ok, ok}))
	// Core IDs past 2^32.
	f.Add(1<<40, 1<<35, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{1, 0, ok, ok}, [4]int8{0, 1, ok, ok}))
	f.Add(1<<40, 1<<35, flowBytes([4]int8{0, 1, ok, ok}, [4]int8{1, 0, ok, ok}))
	f.Fuzz(func(t *testing.T, numCores, base int, data []byte) {
		u := fuzzUseCase(base, data)
		got, want := u.Validate(numCores), validateReference(u, numCores)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("numCores %d, flows %+v: Validate = %v, reference = %v", numCores, u.Flows, got, want)
		}
	})
}
