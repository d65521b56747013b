package verify

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// checkBase is one design's greedy mapping under the default parameters,
// built once per process and cloned before every mutation.
type checkBase struct {
	name string
	m    *core.Mapping
}

var (
	checkBasesOnce sync.Once
	checkBasesList []checkBase
	checkBasesErr  error
)

// checkBases maps D1-D4, one Sp and one Bot synthetic of ten use-cases, D1
// with two smooth-switching pairs and the sample design, so that groups of
// one use-case and groups sharing assignments are both covered.
func checkBases() ([]checkBase, error) {
	checkBasesOnce.Do(func() {
		smoothD1 := func() (*traffic.Design, error) {
			d, err := bench.D1()
			if err != nil {
				return nil, err
			}
			d.SmoothPairs = [][2]int{{0, 1}, {2, 3}}
			return d, nil
		}
		builds := []func() (*traffic.Design, error){
			bench.D1, bench.D2, bench.D3, bench.D4,
			func() (*traffic.Design, error) { return bench.Synthetic(bench.SpreadSpec(10, 1)) },
			func() (*traffic.Design, error) { return bench.Synthetic(bench.BottleneckSpec(10, 1)) },
			smoothD1,
			func() (*traffic.Design, error) { return sampleDesign(), nil },
		}
		for _, build := range builds {
			d, err := build()
			if err != nil {
				checkBasesErr = err
				return
			}
			prep, err := usecase.Prepare(d)
			if err != nil {
				checkBasesErr = err
				return
			}
			res, err := core.Map(prep, d.NumCores(), core.DefaultParams())
			if err != nil {
				checkBasesErr = fmt.Errorf("%s: %w", d.Name, err)
				return
			}
			checkBasesList = append(checkBasesList, checkBase{name: d.Name, m: res.Mapping})
		}
	})
	return checkBasesList, checkBasesErr
}

// cloneMapping deep-copies the placement and configurations of m, keeping
// one clone per assignment so group members still share theirs.
func cloneMapping(m *core.Mapping) *core.Mapping {
	out := *m
	out.CoreSwitch = slices.Clone(m.CoreSwitch)
	out.CoreNI = slices.Clone(m.CoreNI)
	out.Configs = make([]*core.Config, len(m.Configs))
	clones := make(map[*core.Assignment]*core.Assignment)
	for uc, cfg := range m.Configs {
		if cfg == nil {
			continue
		}
		c := &core.Config{Assignments: make(map[traffic.PairKey]*core.Assignment, len(cfg.Assignments))}
		for key, a := range cfg.Assignments {
			if a != nil && clones[a] == nil {
				clones[a] = &core.Assignment{Path: slices.Clone(a.Path), Starts: slices.Clone(a.Starts), SlotCount: a.SlotCount}
			}
			c.Assignments[key] = clones[a]
		}
		out.Configs[uc] = c
	}
	return &out
}

// mutate corrupts m by the ops, four bytes each: an op code and three
// operands. The ops swap and shift starts (also to negative slots and past
// the table), cut, extend and overwrite paths (also with link indices
// outside the fabric), resize reservations, drop assignments, nil
// assignments and configurations, shorten Configs, make group members
// diverge, copy one flow's reservation onto another, and move cores onto
// other cores' NIs or to invalid seats.
func mutate(m *core.Mapping, ops []byte) {
	link := func(v byte) int {
		switch v % 4 {
		case 0:
			return int(v) % m.TotalLinks()
		case 1:
			return m.TotalLinks() + int(v%8)
		case 2:
			return -1 - int(v%8)
		}
		return m.MeshLinks() + int(v)
	}
	for i := 0; i+3 < len(ops) && i < 4*32; i += 4 {
		op, x, y, z := ops[i], ops[i+1], ops[i+2], ops[i+3]
		cores := len(m.CoreSwitch)
		switch op % 4 {
		case 0: // placement
			c1, c2 := int(y)%cores, int(z)%cores
			switch x % 3 {
			case 0:
				m.CoreSwitch[c1], m.CoreNI[c1] = m.CoreSwitch[c2], m.CoreNI[c2]
			case 1:
				m.CoreNI[c1] = int(int8(z))
			case 2:
				m.CoreSwitch[c1] = int(int8(z))
			}
			continue
		case 1: // configurations
			uc := int(y) % len(m.Prep.UseCases)
			if x%2 == 0 {
				if uc < len(m.Configs) {
					m.Configs[uc] = nil
				}
			} else {
				m.Configs = m.Configs[:min(uc, len(m.Configs))]
			}
			continue
		}
		uc := int(x) % len(m.Prep.UseCases)
		flows := m.Prep.UseCases[uc].Flows
		if uc >= len(m.Configs) || m.Configs[uc] == nil || len(flows) == 0 {
			continue
		}
		asgs := m.Configs[uc].Assignments
		key := flows[int(y)%len(flows)].Key()
		other := flows[int(z)%len(flows)].Key()
		if op%4 == 2 { // assignments as a whole
			switch (op / 4) % 5 {
			case 0:
				delete(asgs, key)
			case 1:
				asgs[key] = nil
			case 2: // a group member diverges with an equal copy
				if a := asgs[key]; a != nil {
					asgs[key] = &core.Assignment{Path: slices.Clone(a.Path), Starts: slices.Clone(a.Starts), SlotCount: a.SlotCount}
				}
			case 3:
				asgs[key], asgs[other] = asgs[other], asgs[key]
			case 4: // copy other's reservation: contention
				if a, b := asgs[key], asgs[other]; a != nil && b != nil {
					a.Path, a.Starts, a.SlotCount = slices.Clone(b.Path), slices.Clone(b.Starts), b.SlotCount
				}
			}
			continue
		}
		a := asgs[key]
		if a == nil {
			continue
		}
		switch (op / 4) % 7 {
		case 0:
			if n := len(a.Starts); n > 1 {
				i, j := int(y)%n, int(z)%n
				a.Starts[i], a.Starts[j] = a.Starts[j], a.Starts[i]
			}
		case 1:
			if n := len(a.Starts); n > 0 {
				a.Starts[int(y)%n] += int(int8(z))
			}
		case 2:
			a.Path = a.Path[:int(z)%(len(a.Path)+1)]
		case 3:
			a.Path = append(a.Path, link(z))
		case 4:
			if n := len(a.Path); n > 0 {
				a.Path[int(y)%n] = link(z)
			}
		case 5:
			a.SlotCount += int(int8(z)) % 4
		case 6:
			a.Starts = a.Starts[:int(z)%(len(a.Starts)+1)]
		}
	}
}

// checkMutated requires Check to equal CheckReference exactly on base
// design%len(bases) mutated by ops.
func checkMutated(t *testing.T, design uint8, ops []byte) {
	t.Helper()
	bases, err := checkBases()
	if err != nil {
		t.Fatal(err)
	}
	b := bases[int(design)%len(bases)]
	m := cloneMapping(b.m)
	mutate(m, ops)
	got, want := Check(m), CheckReference(m)
	if !reflect.DeepEqual(got, want) {
		for i := range max(len(got), len(want)) {
			var g, w Violation
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("%s ops %v: violation %d of %d/%d differs:\n got %v\nwant %v", b.name, ops, i, len(got), len(want), g, w)
			}
		}
	}
}

// FuzzCheck is the differential fuzz of the flat Check against the
// map-based CheckReference on corrupted greedy mappings (see mutate).
func FuzzCheck(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(7), []byte{2, 0, 0, 1, 10, 1, 2, 0, 0, 0, 0, 1})
	f.Add(uint8(6), []byte{1, 0, 0, 0, 6, 0, 3, 9, 9, 1, 0, 1, 200})
	f.Add(uint8(3), []byte{7, 2, 5, 130, 15, 1, 3, 200, 3, 4, 4, 6, 19, 0, 2, 1})
	f.Add(uint8(4), []byte{11, 3, 4, 7, 23, 5, 0, 2, 14, 1, 1, 1, 18, 2, 2, 70})
	f.Fuzz(func(t *testing.T, design uint8, ops []byte) {
		checkMutated(t, design, ops)
	})
}

// TestCheckMatchesReference runs the differential check of FuzzCheck on
// seeded random mutations of every base mapping, clean ones included.
func TestCheckMatchesReference(t *testing.T) {
	bases, err := checkBases()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for design := range bases {
		checkMutated(t, uint8(design), nil)
		for range 40 {
			ops := make([]byte, 4*(1+rng.Intn(6)))
			rng.Read(ops)
			checkMutated(t, uint8(design), ops)
		}
	}
}

// TestCheckStampWrap: when the pair ids or the pair-index stamp of a
// pooled checker wrap, the checker forgets every earlier claim and slot,
// and every call on the same scratch still matches the reference. The ids
// are set to wrap after the first group; the stamp wraps on the second
// call.
func TestCheckStampWrap(t *testing.T) {
	bases, err := checkBases()
	if err != nil {
		t.Fatal(err)
	}
	c := new(checker)
	for _, b := range bases {
		m := cloneMapping(b.m)
		mutate(m, []byte{18, 0, 1, 2, 18, 1, 2, 3, 5, 0, 1, 3})
		want := CheckReference(m)
		pairs := map[traffic.PairKey]bool{}
		for _, u := range m.Prep.UseCases {
			for _, f := range u.Flows {
				pairs[f.Key()] = true
			}
		}
		c.top = math.MaxUint32 - uint32(len(pairs)) - 1
		for pass := range 3 {
			if got := c.check(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pass %d: got %v\nwant %v", b.name, pass, got, want)
			}
			c.stamp = math.MaxUint32
		}
	}
}

// TestCheckMissingConfig: a nil or absent configuration is reported once,
// as "missing configuration", and its use-case's flows count as
// unassigned; Check does not panic on either.
func TestCheckMissingConfig(t *testing.T) {
	d, err := bench.D1()
	if err != nil {
		t.Fatal(err)
	}
	m := mapped(t, d)
	last := len(m.Configs) - 1
	for _, tc := range []struct {
		name    string
		corrupt func(m *core.Mapping)
		uc      int
	}{
		{"nil", func(m *core.Mapping) { m.Configs[0] = nil }, 0},
		{"short slice", func(m *core.Mapping) { m.Configs = m.Configs[:last] }, last},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := cloneMapping(m)
			tc.corrupt(m)
			want := []Violation{{UseCase: tc.uc, Reason: "missing configuration"}}
			if got := Check(m); !reflect.DeepEqual(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		})
	}
}

// TestCheckNegativeInteriorLink: a negative link inside a path is reported
// as not a mesh link instead of indexing the topology with it.
func TestCheckNegativeInteriorLink(t *testing.T) {
	d, err := bench.D1()
	if err != nil {
		t.Fatal(err)
	}
	m := mapped(t, d)
	for _, f := range m.Prep.UseCases[0].Flows {
		if a := m.Configs[0].Assignments[f.Key()]; len(a.Path) > 2 {
			a.Path[1] = -1
			want := Violation{UseCase: 0, Pair: f.Key(), Reason: "interior link -1 is not a mesh link"}
			if vs := Check(m); !slices.Contains(vs, want) {
				t.Errorf("violations lack %v: %v", want, vs)
			}
			return
		}
	}
	t.Fatal("no flow of use-case 0 crosses a mesh link")
}

// TestCheckViolationOrderStable: NI overloads are reported by ascending NI
// and group shortfalls in first-seen flow order, so repeated checks of one
// corrupt mapping give identical output.
func TestCheckViolationOrderStable(t *testing.T) {
	m := mapped(t, sampleDesign())
	m.Params.CoresPerNI = 1 // the six cores sit on two NIs
	m.Configs[0].Assignments[traffic.PairKey{Src: 1, Dst: 2}].SlotCount = 0
	m.Configs[1].Assignments[traffic.PairKey{Src: 4, Dst: 5}].SlotCount = 0
	var overloads, shortfalls []string
	first := Check(m)
	for _, v := range first {
		switch {
		case strings.HasPrefix(v.Reason, "NI "):
			overloads = append(overloads, v.Reason)
		case strings.HasPrefix(v.Reason, "group assignment"):
			shortfalls = append(shortfalls, v.String())
		}
	}
	if len(overloads) != 2 || len(shortfalls) != 2 {
		t.Fatalf("want 2 NI overloads and 2 group shortfalls, got %q and %q in\n%v", overloads, shortfalls, first)
	}
	for range 50 {
		if got := Check(m); !reflect.DeepEqual(got, first) {
			t.Fatalf("violation order changed:\n got %v\nwant %v", got, first)
		}
	}
}

// TestCheckAllocs gates the steady-state allocations of Check on a sound
// greedy D4 mapping: the scratch is pooled and a clean verdict is nil.
// Skipped under NOCMAP_SKIP_ALLOC_GATE, coverage instrumentation and the
// race detector.
func TestCheckAllocs(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	d, err := bench.D4()
	if err != nil {
		t.Fatal(err)
	}
	m := mapped(t, d)
	if vs := Check(m); len(vs) != 0 {
		t.Fatalf("greedy D4 has violations: %v", vs)
	}
	allocs := testing.AllocsPerRun(100, func() { Check(m) })
	t.Logf("verify.Check(D4): %.0f allocs/op", allocs)
	if allocs > 2 {
		t.Fatalf("verify.Check(D4) allocates %.0f times per run, want at most 2", allocs)
	}
}

// BenchmarkCheck measures Check, and the map-based reference beside it, on
// the sound greedy mappings.
func BenchmarkCheck(b *testing.B) {
	bases, err := checkBases()
	if err != nil {
		b.Fatal(err)
	}
	for _, base := range bases[:6] {
		for _, impl := range []struct {
			name  string
			check func(*core.Mapping) []Violation
		}{{"flat", Check}, {"reference", CheckReference}} {
			b.Run(base.name[:2]+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					impl.check(base.m)
				}
			})
		}
	}
}
