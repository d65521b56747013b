// Package area provides the analytic switch-area model used for the paper's
// area results (Figure 7(a) and the headline area reduction). The paper
// takes switch areas "from layouts with back-annotated worst-case timing in
// 0.13 µm technology"; we substitute a two-parameter analytic model anchored
// to the published Æthereal 0.13 µm router area (≈0.17 mm² for a 6-port
// GT-BE switch at 500 MHz). Per the paper's footnote 1, NI area is accounted
// to the cores and only switch area is reported.
package area

import (
	"nocmap/internal/core"
	"nocmap/internal/topology"
)

// Model holds the switch-area coefficients.
type Model struct {
	// BaseMM2 is the frequency-independent control overhead per switch.
	BaseMM2 float64
	// PortMM2 is the area of one port's buffering, crossbar column and slot
	// table at the knee frequency.
	PortMM2 float64
	// KneeMHz is the frequency up to which the baseline layout closes
	// timing without upsizing.
	KneeMHz float64
	// GrowthPerGHz is the relative area growth per GHz beyond the knee,
	// modelling drive upsizing and pipelining to meet timing.
	GrowthPerGHz float64
}

// DefaultModel is anchored so a 6-port switch at 500 MHz occupies
// 0.028 + 6*0.024 = 0.172 mm², matching the Æthereal 0.13 µm router, and
// grows ≈1.4x at 2 GHz.
func DefaultModel() Model {
	return Model{BaseMM2: 0.028, PortMM2: 0.024, KneeMHz: 500, GrowthPerGHz: 0.27}
}

// SwitchMM2 returns the area of one switch with the given port count at the
// given frequency.
func (m Model) SwitchMM2(ports int, freqMHz float64) float64 {
	if ports < 1 {
		return 0
	}
	a := m.BaseMM2 + m.PortMM2*float64(ports)
	if freqMHz > m.KneeMHz {
		a *= 1 + m.GrowthPerGHz*(freqMHz-m.KneeMHz)/1000
	}
	return a
}

// NoCMM2 sums switch area over a mapping's topology at the mapping's
// frequency. Ports per switch = fabric neighbours (the switch's actual link
// degree — 2-4 on a mesh, 4 everywhere on a torus) + one per NI. On a mesh this equals MeshMM2.
func (m Model) NoCMM2(mp *core.Mapping) float64 {
	var sum float64
	for s := 0; s < mp.Topology.NumSwitches(); s++ {
		deg := mp.Topology.Degree(topology.SwitchID(s))
		sum += m.SwitchMM2(deg+mp.Params.NIsPerSwitch, mp.Params.FreqMHz)
	}
	return sum
}

// MeshMM2 computes the area of a rows x cols mesh where every switch has
// nisPerSwitch NI ports, at freqMHz.
func (m Model) MeshMM2(rows, cols, nisPerSwitch int, freqMHz float64) float64 {
	var sum float64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			deg := 0
			if r > 0 {
				deg++
			}
			if r < rows-1 {
				deg++
			}
			if c > 0 {
				deg++
			}
			if c < cols-1 {
				deg++
			}
			sum += m.SwitchMM2(deg+nisPerSwitch, freqMHz)
		}
	}
	return sum
}
