package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"

	"nocmap/pkg/noc"
)

// pool generates the request bodies of the HTTP workloads. It holds 62
// design families of 20 use-cases each — the D2 and D4 SoC stand-ins plus
// 30 Spread and 30 Bottleneck synthetics — with every use-case pre-encoded
// as a JSON fragment, so composing a request is a byte copy and costs
// microseconds. The families are fixed; the run seed picks which use-cases
// of which family each request carries.
type pool struct {
	families []family
}

type family struct {
	cores []byte   // the "core_names" member of the design object
	ucs   [][]byte // one encoded use-case object per use-case
}

const (
	familySize  = 20 // use-cases per family
	minUseCases = 2  // smallest design a request carries
)

func newPool() (*pool, error) {
	var designs []*noc.Design
	for _, name := range []string{"D2", "D4"} {
		d, err := noc.Benchmark(name)
		if err != nil {
			return nil, err
		}
		designs = append(designs, d)
	}
	for i := int64(0); i < 30; i++ {
		for _, class := range noc.SyntheticClasses() {
			d, err := noc.Synthetic(class, familySize, 1000+i)
			if err != nil {
				return nil, err
			}
			designs = append(designs, d)
		}
	}
	p := &pool{}
	for _, d := range designs {
		f, err := encodeFamily(d)
		if err != nil {
			return nil, err
		}
		p.families = append(p.families, f)
	}
	return p, nil
}

// The design interchange format, as a client writes it.
type (
	useCaseJSON struct {
		Name  string     `json:"name"`
		Flows []flowJSON `json:"flows"`
	}
	flowJSON struct {
		Src       int     `json:"src"`
		Dst       int     `json:"dst"`
		Bandwidth float64 `json:"bandwidth_mbs"`
		Latency   float64 `json:"max_latency_ns,omitempty"`
	}
)

func encodeFamily(d *noc.Design) (family, error) {
	if len(d.UseCases) != familySize {
		return family{}, fmt.Errorf("family %s has %d use-cases, want %d", d.Name, len(d.UseCases), familySize)
	}
	names := make([]string, len(d.Cores))
	for i, c := range d.Cores {
		names[i] = c.Name
	}
	cores, err := json.Marshal(names)
	if err != nil {
		return family{}, err
	}
	f := family{cores: append([]byte(`"core_names":`), cores...)}
	for _, u := range d.UseCases {
		uj := useCaseJSON{Name: u.Name}
		for _, fl := range u.Flows {
			uj.Flows = append(uj.Flows, flowJSON{Src: int(fl.Src), Dst: int(fl.Dst),
				Bandwidth: fl.BandwidthMBs, Latency: fl.MaxLatencyNS})
		}
		frag, err := json.Marshal(uj)
		if err != nil {
			return family{}, err
		}
		f.ucs = append(f.ucs, frag)
	}
	return f, nil
}

// request suffixes: the engine and search effort of each workload.
const (
	greedySuffix = `"engine":"greedy"}`
	streamSuffix = `"engine":"anneal","iters":300,"mode":"stream"}`
)

// body builds the request for one design: k use-cases of family fam,
// picked by the stream (seed, j), under the given name.
func (p *pool) body(seed int64, j, fam, k int, name, suffix string) []byte {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(j)))
	f := p.families[fam]
	ucs := rng.Perm(familySize)[:k]
	slices.Sort(ucs)
	b := make([]byte, 0, 64+len(f.cores)+k*len(f.ucs[0])*2+len(suffix))
	b = append(b, `{"design":{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, ',')
	b = append(b, f.cores...)
	b = append(b, `,"use_cases":[`...)
	for i, u := range ucs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f.ucs[u]...)
	}
	b = append(b, "]},"...)
	return append(b, suffix...)
}

// Request shapes — family and size — follow the design index, not the seed,
// so every run sees the same mix and a seed varies only which use-cases of
// the family each request carries.
const sizeSpan = familySize - minUseCases + 1 // sizes 2..20

// cycleShape: design i carries 2 + i mod 19 use-cases of family i mod 62;
// the two cycles are coprime, so every pairing occurs once per 1178 designs.
func (p *pool) cycleShape(i int) (fam, k int) {
	return i % len(p.families), minUseCases + i%sizeSpan
}

// shapeCycle is the length of cycleShape's cycle: 62 families x 19 sizes.
const shapeCycle = 1178

// opBodies returns the request generator of a workload whose ops each carry
// a new design. The ops run through cycles of the same n designs — design j
// draws its use-cases from stream (0, j), the same under every seed — each
// cycle in its own seeded order, and op i names its design after i, so every
// request has a digest never seen before while every run maps the same
// designs: a run's tail is taken over the same inputs at every seed, and
// switches_mean and lower_bound_mean over the first cycle move only with
// the mapper.
func (p *pool) opBodies(seed int64, n int, name, suffix string) func(i int) []byte {
	var (
		mu     sync.Mutex
		orders = map[int][]int{}
	)
	order := func(c int) []int {
		mu.Lock()
		defer mu.Unlock()
		if orders[c] == nil {
			orders[c] = rand.New(rand.NewPCG(uint64(seed), uint64(c)<<32|0x9a1)).Perm(n)
		}
		return orders[c]
	}
	return func(i int) []byte {
		j := order(i / n)[i%n]
		fam, k := p.cycleShape(j)
		return p.body(0, j, fam, k, name+"-"+strconv.Itoa(i), suffix)
	}
}

// rankShape: the hot-hits entry of popularity rank r scatters its size over
// 2..20 use-cases, so the most requested entries are not all small.
func (p *pool) rankShape(r int) (fam, k int) {
	return r % len(p.families), minUseCases + (r*7)%sizeSpan
}

// setupBody is the fixed first request of a set-up: ten use-cases of D2,
// the same under every seed.
func (p *pool) setupBody(suffix string) []byte {
	return p.body(0, 0, 0, 10, "setup-0", suffix)
}

// zipfRanks draws n entry ranks over [0, entries) from a Zipf(s=1.1)
// popularity law.
func zipfRanks(seed int64, n, entries int) []int32 {
	z := rand.NewZipf(rand.New(rand.NewPCG(uint64(seed), 0x21b)), 1.1, 1, uint64(entries-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}
