package usecase

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"nocmap/internal/traffic"
)

// fig4Design reproduces the scenario of the paper's Figure 4: eight original
// use-cases U1..U8, parallel sets {U1,U2,U3} and {U4,U5}, and a smooth
// switching requirement between U6 and U7 (U7 is critical).
func fig4Design() *traffic.Design {
	ucs := make([]*traffic.UseCase, 8)
	for i := range ucs {
		ucs[i] = &traffic.UseCase{
			Name: []string{"U1", "U2", "U3", "U4", "U5", "U6", "U7", "U8"}[i],
			Flows: []traffic.Flow{
				{Src: traffic.CoreID(i % 3), Dst: traffic.CoreID(3 + i%2), BandwidthMBs: 10 * float64(i+1)},
			},
		}
	}
	return &traffic.Design{
		Name:         "fig4",
		Cores:        traffic.MakeCores(5),
		UseCases:     ucs,
		ParallelSets: [][]int{{0, 1, 2}, {3, 4}},
		SmoothPairs:  [][2]int{{5, 6}},
	}
}

func TestFig4Grouping(t *testing.T) {
	p, err := Prepare(fig4Design())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if p.NumOriginal != 8 || len(p.UseCases) != 10 {
		t.Fatalf("NumOriginal=%d total=%d, want 8 and 10", p.NumOriginal, len(p.UseCases))
	}
	// Generated compounds are U_123 (index 8) and U_45 (index 9).
	if !p.UseCases[8].Compound || !p.UseCases[9].Compound || p.UseCases[7].Compound {
		t.Error("compound flags wrong")
	}
	// Figure 4 groups: {U1,U2,U3,U_123}, {U4,U5,U_45}, {U6,U7}, {U8}.
	want := [][]int{{0, 1, 2, 8}, {3, 4, 9}, {5, 6}, {7}}
	if !reflect.DeepEqual(p.Groups, want) {
		t.Errorf("Groups = %v, want %v", p.Groups, want)
	}
	if !p.SameGroup(0, 8) || p.SameGroup(0, 3) || !p.SameGroup(5, 6) {
		t.Error("SameGroup answers wrong")
	}
	if got := p.Groups[p.GroupOf[9]]; !reflect.DeepEqual(got, []int{3, 4, 9}) {
		t.Errorf("group of 9 = %v", got)
	}
}

func TestPrepareNoSpecsYieldsSingletons(t *testing.T) {
	d := &traffic.Design{
		Name:  "plain",
		Cores: traffic.MakeCores(3),
		UseCases: []*traffic.UseCase{
			{Name: "a", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 5}}},
			{Name: "b", Flows: []traffic.Flow{{Src: 1, Dst: 2, BandwidthMBs: 5}}},
		},
	}
	p, err := Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.UseCases) != 2 || len(p.Groups) != 2 {
		t.Errorf("got %d use-cases, %d groups; want 2 singleton groups", len(p.UseCases), len(p.Groups))
	}
	if p.SameGroup(0, 1) {
		t.Error("use-cases without a smooth-switching spec share a group")
	}
}

func TestPrepareCompoundFlows(t *testing.T) {
	d := &traffic.Design{
		Name:  "cf",
		Cores: traffic.MakeCores(3),
		UseCases: []*traffic.UseCase{
			{Name: "a", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 100, MaxLatencyNS: 800}}},
			{Name: "b", Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 40, MaxLatencyNS: 400}}},
		},
		ParallelSets: [][]int{{0, 1}},
	}
	p, err := Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	comp := p.UseCases[2]
	if !comp.Compound || len(comp.Flows) != 1 {
		t.Fatalf("compound = %+v", comp)
	}
	if comp.Flows[0].BandwidthMBs != 140 || comp.Flows[0].MaxLatencyNS != 400 {
		t.Errorf("compound flow = %+v, want bw 140 lat 400", comp.Flows[0])
	}
	// The compound must be grouped with both constituents.
	if !p.SameGroup(0, 2) || !p.SameGroup(1, 2) || !p.SameGroup(0, 1) {
		t.Error("compound constituents not grouped together")
	}
}

func TestPrepareDoesNotMutateInput(t *testing.T) {
	d := fig4Design()
	origLen := len(d.UseCases)
	origBW := d.UseCases[0].Flows[0].BandwidthMBs
	p, err := Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	p.UseCases[0].Flows[0].BandwidthMBs = 1e9
	if len(d.UseCases) != origLen || d.UseCases[0].Flows[0].BandwidthMBs != origBW {
		t.Error("Prepare mutated the input design")
	}
}

func TestPrepareRejectsInvalidDesign(t *testing.T) {
	d := fig4Design()
	d.UseCases[0].Flows[0].BandwidthMBs = -1
	if _, err := Prepare(d); err == nil {
		t.Error("Prepare accepted invalid design")
	}
}

// Property: groups partition the use-case set; every use-case appears in
// exactly one group, and GroupOf is consistent with Groups.
func TestGroupsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nUC := 2 + rng.Intn(10)
		ucs := make([]*traffic.UseCase, nUC)
		for i := range ucs {
			ucs[i] = &traffic.UseCase{
				Name:  "u" + string(rune('A'+i)),
				Flows: []traffic.Flow{{Src: 0, Dst: 1, BandwidthMBs: 1 + rng.Float64()*100}},
			}
		}
		d := &traffic.Design{Name: "r", Cores: traffic.MakeCores(4), UseCases: ucs}
		// Random smooth pairs.
		for i := 0; i < rng.Intn(nUC); i++ {
			a, b := rng.Intn(nUC), rng.Intn(nUC)
			d.SmoothPairs = append(d.SmoothPairs, [2]int{a, b})
		}
		// Maybe one parallel set.
		if nUC >= 3 && rng.Intn(2) == 0 {
			d.ParallelSets = [][]int{{0, 1, 2}}
		}
		p, err := Prepare(d)
		if err != nil {
			return false
		}
		seen := make(map[int]int)
		for gi, grp := range p.Groups {
			for _, u := range grp {
				if _, dup := seen[u]; dup {
					return false
				}
				seen[u] = gi
				if p.GroupOf[u] != gi {
					return false
				}
			}
		}
		if len(seen) != len(p.UseCases) {
			return false
		}
		// Smooth pairs must land in the same group.
		for _, pair := range d.SmoothPairs {
			if !p.SameGroup(pair[0], pair[1]) {
				return false
			}
		}
		// Parallel constituents must be grouped with their compound.
		for ci, set := range d.ParallelSets {
			comp := p.NumOriginal + ci
			for _, idx := range set {
				if !p.SameGroup(comp, idx) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
