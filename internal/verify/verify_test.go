package verify

import (
	"fmt"
	"strings"
	"testing"

	"nocmap/internal/core"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

func mapped(t *testing.T, d *traffic.Design) *core.Mapping {
	t.Helper()
	pr, err := usecase.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(pr, d.NumCores(), core.DefaultParams())
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	return res.Mapping
}

func sampleDesign() *traffic.Design {
	return &traffic.Design{
		Name:  "sample",
		Cores: traffic.MakeCores(6),
		UseCases: []*traffic.UseCase{
			{Name: "a", Flows: []traffic.Flow{
				{Src: 0, Dst: 1, BandwidthMBs: 400, MaxLatencyNS: 2000},
				{Src: 1, Dst: 2, BandwidthMBs: 250},
				{Src: 3, Dst: 4, BandwidthMBs: 700},
			}},
			{Name: "b", Flows: []traffic.Flow{
				{Src: 0, Dst: 1, BandwidthMBs: 150},
				{Src: 4, Dst: 5, BandwidthMBs: 900},
				{Src: 2, Dst: 0, BandwidthMBs: 60, MaxLatencyNS: 1500},
			}},
		},
		SmoothPairs: [][2]int{{0, 1}},
	}
}

func TestCheckCleanMapping(t *testing.T) {
	m := mapped(t, sampleDesign())
	if v := Check(m); len(v) != 0 {
		t.Fatalf("clean mapping reported violations: %v", v)
	}
}

func TestCheckDetectsMissingAssignment(t *testing.T) {
	m := mapped(t, sampleDesign())
	delete(m.Configs[0].Assignments, traffic.PairKey{Src: 0, Dst: 1})
	vs := Check(m)
	if len(vs) == 0 {
		t.Fatal("missing assignment not detected")
	}
	found := false
	for _, v := range vs {
		if strings.Contains(v.String(), "no assignment") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations lack 'no assignment': %v", vs)
	}
}

func TestCheckDetectsUndersizedReservation(t *testing.T) {
	m := mapped(t, sampleDesign())
	a := m.Configs[0].Assignments[traffic.PairKey{Src: 3, Dst: 4}]
	a.SlotCount = 1
	a.Starts = a.Starts[:1]
	vs := Check(m)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "granted") {
			found = true
		}
	}
	if !found {
		t.Errorf("undersized reservation not detected: %v", vs)
	}
}

func TestCheckDetectsBrokenPath(t *testing.T) {
	m := mapped(t, sampleDesign())
	a := m.Configs[1].Assignments[traffic.PairKey{Src: 4, Dst: 5}]
	a.Path = a.Path[:1] // lop off the tail: no NI ingress
	vs := Check(m)
	if len(vs) == 0 {
		t.Fatal("broken path not detected")
	}
}

func TestCheckDetectsContention(t *testing.T) {
	m := mapped(t, sampleDesign())
	// Force two flows of use-case "a" onto identical (link, slot) cells.
	k1 := traffic.PairKey{Src: 0, Dst: 1}
	k2 := traffic.PairKey{Src: 1, Dst: 2}
	a1 := m.Configs[0].Assignments[k1]
	a2 := m.Configs[0].Assignments[k2]
	a2.Path = append([]int(nil), a1.Path...)
	a2.Starts = append([]int(nil), a1.Starts...)
	a2.SlotCount = a1.SlotCount
	vs := Check(m)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "also claimed") {
			found = true
		}
	}
	if !found {
		t.Errorf("contention not detected: %v", vs)
	}
}

func TestCheckDetectsGroupDivergence(t *testing.T) {
	m := mapped(t, sampleDesign())
	key := traffic.PairKey{Src: 0, Dst: 1}
	shared := m.Configs[0].Assignments[key]
	clone := *shared
	m.Configs[1].Assignments[key] = &clone // same content, different pointer
	vs := Check(m)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "diverging") {
			found = true
		}
	}
	if !found {
		t.Errorf("group divergence not detected: %v", vs)
	}
}

func TestCheckDetectsBadPlacement(t *testing.T) {
	m := mapped(t, sampleDesign())
	m.CoreNI[0] = m.CoreNI[0] + 99
	if vs := Check(m); len(vs) == 0 {
		t.Error("bad NI assignment not detected")
	}
	m2 := mapped(t, sampleDesign())
	m2.CoreSwitch[2] = -1 // attached NI without switch
	if vs := Check(m2); len(vs) == 0 {
		t.Error("orphan NI not detected")
	}
}

func TestCheckDetectsLatencyViolation(t *testing.T) {
	m := mapped(t, sampleDesign())
	a := m.Configs[0].Assignments[traffic.PairKey{Src: 0, Dst: 1}]
	// Collapse the reservation to a single start: max gap explodes.
	if len(a.Starts) > 1 {
		a.Starts = a.Starts[:1]
		a.SlotCount = 1
	}
	vs := Check(m)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "latency") || strings.Contains(v.Reason, "granted") {
			found = true
		}
	}
	if !found {
		t.Errorf("latency/size violation not detected: %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{UseCase: 2, Pair: traffic.PairKey{Src: 1, Dst: 3}, Reason: "boom"}
	s := v.String()
	if !strings.Contains(s, "use-case 2") || !strings.Contains(s, "1->3") || !strings.Contains(s, "boom") {
		t.Errorf("String = %q", s)
	}
}

// TestCheckCorruptLinkIndices: a corrupt mapping may name links outside
// the fabric. Check must not panic on them and must report them exactly as
// before — including contention between two pairs that claim the same
// out-of-range (link, slot) cell.
func TestCheckCorruptLinkIndices(t *testing.T) {
	// claims lists the contention verdicts: 1->2 collides with 0->1 on every
	// slot of the shared corrupt first link, and 4->5 with 1->2 on link 3.
	claims := func(link string) []string {
		var out []string
		for _, slot := range []int{1, 4, 9, 14, 18, 24, 29, 34, 39, 43, 49, 54, 59} {
			out = append(out, fmt.Sprintf("use-case 0 flow 1->2: group 0: link %s slot %d also claimed by 0->1", link, slot))
		}
		for _, slot := range []int{5, 25, 40, 60} {
			out = append(out, fmt.Sprintf("use-case 1 flow 4->5: group 0: link 3 slot %d also claimed by 1->2", slot))
		}
		return out
	}
	k1 := traffic.PairKey{Src: 0, Dst: 1}
	k2 := traffic.PairKey{Src: 1, Dst: 2}
	cases := []struct {
		name    string
		corrupt func(m *core.Mapping, a1, a2 *core.Assignment)
		want    []string
	}{
		{"beyond link count", func(m *core.Mapping, a1, a2 *core.Assignment) {
			a2.Starts = append([]int(nil), a1.Starts...)
			a2.SlotCount = a1.SlotCount
			a1.Path[0] = m.TotalLinks() + 7
			a2.Path[0] = m.TotalLinks() + 7
		}, append([]string{
			"use-case 0 flow 0->1: path starts at link 11, want NI egress 2",
			"use-case 0 flow 1->2: path starts at link 11, want NI egress 0",
			"use-case 1 flow 0->1: path starts at link 11, want NI egress 2",
		}, claims("11")...)},
		{"negative link", func(m *core.Mapping, a1, a2 *core.Assignment) {
			a2.Starts = append([]int(nil), a1.Starts...)
			a2.SlotCount = a1.SlotCount
			a1.Path[0] = -1
			a2.Path[0] = -1
		}, append([]string{
			"use-case 0 flow 0->1: path starts at link -1, want NI egress 2",
			"use-case 0 flow 1->2: path starts at link -1, want NI egress 0",
			"use-case 1 flow 0->1: path starts at link -1, want NI egress 2",
		}, claims("-1")...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mapped(t, sampleDesign())
			tc.corrupt(m, m.Configs[0].Assignments[k1], m.Configs[0].Assignments[k2])
			var got []string
			for _, v := range Check(m) {
				got = append(got, v.String())
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("violations:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestCheckStartSlotRange: a start slot outside [0, SlotTableSize) is
// reported once per use-case holding the assignment, whether it is negative
// or at the table size, where (start+hop) mod T would silently wrap it.
func TestCheckStartSlotRange(t *testing.T) {
	k1 := traffic.PairKey{Src: 0, Dst: 1}
	for _, tc := range []struct {
		name  string
		start func(T int) int
	}{
		{"negative", func(int) int { return -5 }},
		{"table size", func(T int) int { return T }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mapped(t, sampleDesign())
			T := m.Params.SlotTableSize
			st := tc.start(T)
			m.Configs[0].Assignments[k1].Starts[0] = st
			want := fmt.Sprintf("start slot %d outside the %d-slot table", st, T)
			var hits []int
			for _, v := range Check(m) {
				if v.Pair == k1 && v.Reason == want {
					hits = append(hits, v.UseCase)
				}
			}
			// Use-cases 0 and 1 form one smooth-switching group and share the
			// 0->1 assignment.
			if fmt.Sprint(hits) != "[0 1]" {
				t.Fatalf("%q reported for use-cases %v, want [0 1]\n%v", want, hits, Check(m))
			}
		})
	}
}
