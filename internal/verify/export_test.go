package verify

import (
	"fmt"
	"sort"

	"nocmap/internal/core"
	"nocmap/internal/tdma"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
)

// CheckReference is the map-based Check that the flat, pooled Check
// replaced, kept as the oracle for TestCheckMatchesReference and FuzzCheck.
// It differs from the original in four places only, each marked "differs":
// the two loops that reported in map iteration order now report NI
// overloads in ascending NI order and group shortfalls in first-seen flow
// order, a missing or absent configuration makes its use-case's flows
// unassigned instead of dereferencing a nil *Config, and a negative
// interior link is reported as not a mesh link instead of indexing the
// topology with it.
func CheckReference(m *core.Mapping) []Violation {
	var out []Violation
	out = append(out, refPlacement(m)...)
	for uc := range m.Prep.UseCases {
		out = append(out, refUseCase(m, uc)...)
	}
	out = append(out, refGroupSharing(m)...)
	out = append(out, refContention(m)...)
	return out
}

// refConfig differs: it returns nil for a use-case without a configuration,
// including one past the end of a short Configs slice.
func refConfig(m *core.Mapping, uc int) *core.Config {
	if uc >= len(m.Configs) {
		return nil
	}
	return m.Configs[uc]
}

// refAssignment differs: a use-case without a configuration has no
// assignments.
func refAssignment(m *core.Mapping, uc int, key traffic.PairKey) *core.Assignment {
	cfg := refConfig(m, uc)
	if cfg == nil {
		return nil
	}
	return cfg.Assignments[key]
}

func refPlacement(m *core.Mapping) []Violation {
	var out []Violation
	p := m.Params
	niLoad := make(map[int]int)
	for c, s := range m.CoreSwitch {
		ni := m.CoreNI[c]
		if s < 0 {
			if ni >= 0 {
				out = append(out, Violation{Reason: fmt.Sprintf("core %d has NI %d but no switch", c, ni)})
			}
			continue
		}
		if s >= m.Topology.NumSwitches() {
			out = append(out, Violation{Reason: fmt.Sprintf("core %d on invalid switch %d", c, s)})
			continue
		}
		if ni < 0 || ni/p.NIsPerSwitch != s {
			out = append(out, Violation{Reason: fmt.Sprintf("core %d NI %d not on switch %d", c, ni, s)})
			continue
		}
		niLoad[ni]++
	}
	// differs: ascending NI order.
	nis := make([]int, 0, len(niLoad))
	for ni := range niLoad {
		nis = append(nis, ni)
	}
	sort.Ints(nis)
	for _, ni := range nis {
		if n := niLoad[ni]; n > p.CoresPerNI {
			out = append(out, Violation{Reason: fmt.Sprintf("NI %d hosts %d cores, capacity %d", ni, n, p.CoresPerNI)})
		}
	}
	return out
}

func refUseCase(m *core.Mapping, uc int) []Violation {
	var out []Violation
	u := m.Prep.UseCases[uc]
	cfg := refConfig(m, uc)
	if cfg == nil {
		return []Violation{{UseCase: uc, Reason: "missing configuration"}}
	}
	bad := func(key traffic.PairKey, format string, args ...interface{}) {
		out = append(out, Violation{UseCase: uc, Pair: key, Reason: fmt.Sprintf(format, args...)})
	}
	meshLinks := m.MeshLinks()
	for _, f := range u.Flows {
		key := f.Key()
		a, ok := cfg.Assignments[key]
		if !ok || a == nil {
			bad(key, "no assignment")
			continue
		}
		// 1. Structure.
		if len(a.Path) < 2 {
			bad(key, "path too short (%d links)", len(a.Path))
			continue
		}
		wantEgress := m.NIEgressLink(m.CoreNI[f.Src])
		wantIngress := m.NIIngressLink(m.CoreNI[f.Dst])
		if a.Path[0] != wantEgress {
			bad(key, "path starts at link %d, want NI egress %d", a.Path[0], wantEgress)
		}
		if a.Path[len(a.Path)-1] != wantIngress {
			bad(key, "path ends at link %d, want NI ingress %d", a.Path[len(a.Path)-1], wantIngress)
		}
		mesh := a.Path[1 : len(a.Path)-1]
		cur := m.CoreSwitch[f.Src]
		okMesh := true
		for _, l := range mesh {
			if l < 0 || l >= meshLinks { // differs: l < 0 is reported too
				bad(key, "interior link %d is not a mesh link", l)
				okMesh = false
				break
			}
			link := m.Topology.Link(topology.LinkID(l))
			if int(link.From) != cur {
				bad(key, "mesh path discontinuous at link %d", l)
				okMesh = false
				break
			}
			cur = int(link.To)
		}
		if okMesh && cur != m.CoreSwitch[f.Dst] {
			bad(key, "mesh path ends at switch %d, want %d", cur, m.CoreSwitch[f.Dst])
		}
		// 2. Bandwidth.
		granted := float64(a.SlotCount) * m.Params.SlotBandwidthMBs()
		if granted < f.BandwidthMBs-1e-6 {
			bad(key, "granted %.2f MB/s < required %.2f", granted, f.BandwidthMBs)
		}
		if len(a.Starts) != a.SlotCount {
			bad(key, "slot count %d != starts %d", a.SlotCount, len(a.Starts))
		}
		for _, st := range a.Starts {
			if st < 0 || st >= m.Params.SlotTableSize {
				bad(key, "start slot %d outside the %d-slot table", st, m.Params.SlotTableSize)
			}
		}
		// 4. Latency.
		if f.MaxLatencyNS > 0 {
			budget := m.Params.LatencyBudgetSlots(f.MaxLatencyNS)
			wc := tdma.WorstCaseLatencySlots(a.Starts, len(a.Path), m.Params.SlotTableSize)
			if wc > budget {
				bad(key, "worst-case latency %d slots exceeds budget %d", wc, budget)
			}
		}
	}
	return out
}

func refGroupSharing(m *core.Mapping) []Violation {
	var out []Violation
	for _, group := range m.Prep.Groups {
		seen := make(map[traffic.PairKey]*core.Assignment)
		maxBW := make(map[traffic.PairKey]float64)
		var order []traffic.PairKey // differs: first-seen order of seen's keys
		for _, uc := range group {
			for _, f := range m.Prep.UseCases[uc].Flows {
				key := f.Key()
				a := refAssignment(m, uc, key)
				prev, ok := seen[key]
				if ok && prev != a {
					out = append(out, Violation{UseCase: uc, Pair: key,
						Reason: "group members have diverging assignments for a shared pair"})
				}
				if !ok {
					order = append(order, key)
				}
				seen[key] = a
				if f.BandwidthMBs > maxBW[key] {
					maxBW[key] = f.BandwidthMBs
				}
			}
		}
		for _, key := range order { // differs: was `for key, a := range seen`
			a := seen[key]
			if a == nil {
				continue
			}
			granted := float64(a.SlotCount) * m.Params.SlotBandwidthMBs()
			if granted < maxBW[key]-1e-6 {
				out = append(out, Violation{Pair: key,
					Reason: fmt.Sprintf("group assignment grants %.2f MB/s < group max %.2f", granted, maxBW[key])})
			}
		}
	}
	return out
}

func refContention(m *core.Mapping) []Violation {
	var out []Violation
	T := m.Params.SlotTableSize
	links := m.TotalLinks()
	owner := make([]int32, links*max(T, 0))
	var stray map[[2]int]int32
	walked := make(map[traffic.PairKey]bool)
	var keys []traffic.PairKey
	for gi, group := range m.Prep.Groups {
		clear(owner)
		clear(stray)
		clear(walked)
		keys = keys[:0]
		for _, uc := range group {
			for _, f := range m.Prep.UseCases[uc].Flows {
				key := f.Key()
				if walked[key] {
					continue
				}
				walked[key] = true
				keys = append(keys, key)
				id := int32(len(keys))
				a := refAssignment(m, uc, key)
				if a == nil {
					continue
				}
				for _, st := range a.Starts {
					for h, link := range a.Path {
						slot := (st + h) % T
						var prev int32
						if link >= 0 && link < links && slot >= 0 && slot < T {
							prev, owner[link*T+slot] = owner[link*T+slot], id
						} else {
							if stray == nil {
								stray = make(map[[2]int]int32)
							}
							cell := [2]int{link, slot}
							prev, stray[cell] = stray[cell], id
						}
						if prev != 0 && prev != id {
							other := keys[prev-1]
							out = append(out, Violation{UseCase: uc, Pair: key,
								Reason: fmt.Sprintf("group %d: link %d slot %d also claimed by %d->%d",
									gi, link, slot, other.Src, other.Dst)})
						}
					}
				}
			}
		}
	}
	return out
}
