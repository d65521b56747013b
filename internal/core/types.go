// Package core implements the paper's primary contribution: the unified
// multi-use-case mapping and NoC configuration heuristic (Algorithm 2).
//
// The mapper receives the pre-processed use-cases (originals plus generated
// compound modes, partitioned into smooth-switching groups) and searches the
// mesh growth sequence for the smallest topology on which every use-case's
// flows can be placed, routed and granted TDMA slots. The defining property
// of the algorithm — and its advantage over the worst-case baseline of
// reference [25] — is that every use-case keeps its own residual resource
// state: a flow reserved for use-case A does not consume bandwidth visible
// to use-case B, because the network is re-configured when the SoC switches
// between them. Only use-cases within one smooth-switching group share
// reservations, which are then sized by the largest flow in the group.
package core

import (
	"fmt"

	"nocmap/internal/route"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// Params configure the NoC architecture model and the mapper's search.
type Params struct {
	// LinkWidthBits is the flit width of every link (default 32).
	LinkWidthBits int
	// FreqMHz is the NoC operating frequency (default 500, the frequency the
	// paper fixes for the method comparison).
	FreqMHz float64
	// SlotTableSize is the TDMA table length T of every link (default 64).
	SlotTableSize int
	// SlotCycles is the length of one TDMA slot in clock cycles (default 3,
	// the Æthereal 3-word slot).
	SlotCycles int
	// NIsPerSwitch is how many network interfaces attach to one switch
	// (default 2). Each NI contributes one ingress and one egress link with
	// their own slot tables, so it bounds the bandwidth in and out of the
	// cores of one switch.
	NIsPerSwitch int
	// CoresPerNI is how many cores share one NI (default 4).
	CoresPerNI int
	// MaxMeshDim caps the outer growth loop at MaxMeshDim x MaxMeshDim
	// (default 20, where the paper reports the WC method failing).
	MaxMeshDim int
	// Topology selects the interconnect family the search explores: the
	// growth loop instantiates mesh or torus shapes from it (default: mesh).
	Topology topology.Spec
	// Cost weights the path-selection objective.
	Cost route.CostParams

	// DisableMappedPreference turns off Algorithm 2's preference for flows
	// whose endpoints are already mapped (ablation A1).
	DisableMappedPreference bool
	// DisableUnifiedSlots drops TDMA alignment from the inner loop: paths
	// are selected on bandwidth alone and slots are assigned post hoc
	// (ablation A2, approximating a non-unified flow as criticized in §5).
	DisableUnifiedSlots bool
}

// DefaultParams returns the architecture defaults used throughout the
// evaluation.
func DefaultParams() Params {
	return Params{
		LinkWidthBits: 32,
		FreqMHz:       500,
		SlotTableSize: 64,
		SlotCycles:    3,
		NIsPerSwitch:  2,
		CoresPerNI:    4,
		MaxMeshDim:    20,
		Topology:      topology.MeshSpec(),
		Cost:          route.DefaultCostParams(),
	}
}

// Validate rejects nonsensical parameter combinations.
func (p Params) Validate() error {
	switch {
	case p.LinkWidthBits <= 0:
		return fmt.Errorf("core: link width %d invalid", p.LinkWidthBits)
	case p.FreqMHz <= 0:
		return fmt.Errorf("core: frequency %v invalid", p.FreqMHz)
	case p.SlotTableSize < 2:
		return fmt.Errorf("core: slot table size %d invalid", p.SlotTableSize)
	case p.SlotCycles <= 0:
		return fmt.Errorf("core: slot cycles %d invalid", p.SlotCycles)
	case p.NIsPerSwitch <= 0 || p.CoresPerNI <= 0:
		return fmt.Errorf("core: NI shape %dx%d invalid", p.NIsPerSwitch, p.CoresPerNI)
	case p.MaxMeshDim < 1:
		return fmt.Errorf("core: max mesh dim %d invalid", p.MaxMeshDim)
	}
	return p.Topology.Validate()
}

// LinkBandwidthMBs is the raw bandwidth of one link: width/8 bytes per cycle
// at FreqMHz million cycles per second = width/8 * FreqMHz MB/s.
func (p Params) LinkBandwidthMBs() float64 {
	return float64(p.LinkWidthBits) / 8 * p.FreqMHz
}

// SlotBandwidthMBs is the bandwidth granted by one reserved TDMA slot.
func (p Params) SlotBandwidthMBs() float64 {
	return p.LinkBandwidthMBs() / float64(p.SlotTableSize)
}

// CoresPerSwitch is the core-hosting capacity of one switch.
func (p Params) CoresPerSwitch() int { return p.NIsPerSwitch * p.CoresPerNI }

// LatencyBudgetSlots converts a latency constraint in nanoseconds to a
// whole-slot budget at the configured frequency. Zero (unconstrained)
// returns a negative sentinel meaning "no bound".
func (p Params) LatencyBudgetSlots(latencyNS float64) int {
	if latencyNS <= 0 {
		return -1
	}
	cycles := latencyNS * p.FreqMHz / 1000 // ns * cycles/ns
	return int(cycles / float64(p.SlotCycles))
}

// WithFrequency returns a copy of the parameters at a different frequency.
// Slot tables keep their size, so per-slot bandwidth scales with f.
func (p Params) WithFrequency(freqMHz float64) Params {
	p.FreqMHz = freqMHz
	return p
}

// Assignment is one flow's granted resources in one use-case configuration:
// the full path (NI egress link, mesh links, NI ingress link) and the slot
// starts reserved on its first link.
type Assignment struct {
	// Path holds link IDs in traversal order. IDs below the topology's mesh
	// link count are mesh links; the rest are NI links (see Mapping.NILinks).
	Path []int
	// Starts are the reserved starting slots on Path[0], sorted ascending.
	Starts []int
	// SlotCount is the number of reserved slots (len(Starts) when granted).
	SlotCount int
}

// Config is the NoC configuration of one use-case: one assignment per flow,
// keyed by the flow's directed core pair. Use-cases in one smooth-switching
// group have identical assignments for their shared pairs.
type Config struct {
	Assignments map[traffic.PairKey]*Assignment
}

// Mapping is the complete output of the methodology for one design: the
// chosen topology, the shared placement of cores onto switches and NIs, and
// one configuration per use-case.
type Mapping struct {
	Topology *topology.Topology
	Params   Params
	Prep     *usecase.Prepared

	// CoreSwitch maps each core to its switch, or -1 if the core never
	// communicates and was left unattached.
	CoreSwitch []int
	// CoreNI maps each core to its global NI index (switch*NIsPerSwitch+ni),
	// or -1.
	CoreNI []int
	// Configs holds one configuration per use-case, indexed like Prep.UseCases.
	Configs []*Config
}

// MeshLinks returns the number of mesh links; link IDs at or above this are
// NI links.
func (m *Mapping) MeshLinks() int { return m.Topology.NumLinks() }

// TotalLinks returns mesh plus NI link count.
func (m *Mapping) TotalLinks() int {
	return m.MeshLinks() + 2*m.Topology.NumSwitches()*m.Params.NIsPerSwitch
}

// NIEgressLink returns the link ID carrying traffic from NI `globalNI` into
// its switch.
func (m *Mapping) NIEgressLink(globalNI int) int { return m.MeshLinks() + 2*globalNI }

// NIIngressLink returns the link ID carrying traffic from the switch out to
// NI `globalNI`.
func (m *Mapping) NIIngressLink(globalNI int) int { return m.MeshLinks() + 2*globalNI + 1 }

// SwitchCount reports the number of switches of the chosen topology — the
// paper's primary size metric.
func (m *Mapping) SwitchCount() int { return m.Topology.NumSwitches() }

// SeatLowerBound is the weakest admissible lower bound on the switch count
// of any feasible mapping of this design: every attached core needs one NI
// seat, and a switch seats NIsPerSwitch*CoresPerNI of them. The bound never
// exceeds SwitchCount() — the mapping in hand seats every attached core.
func (m *Mapping) SeatLowerBound() int {
	attached := 0
	for _, s := range m.CoreSwitch {
		if s >= 0 {
			attached++
		}
	}
	per := m.Params.CoresPerSwitch()
	lb := (attached + per - 1) / per
	if lb < 1 {
		lb = 1
	}
	return lb
}

// Attempt records one iteration of the outer growth loop.
type Attempt struct {
	Dim topology.Dim
	// Skipped is true when the size was rejected on core capacity alone.
	Skipped bool
	// Err holds the failure reason; empty for the successful attempt.
	Err string
}

// Stats summarize a successful mapping for reporting.
type Stats struct {
	// MaxLinkUtil is the highest slot-table occupancy of any link in any
	// use-case configuration.
	MaxLinkUtil float64
	// AvgMeshHops is the bandwidth-weighted mean mesh path length.
	AvgMeshHops float64
	// SlotsReserved is the total number of (link, slot) entries reserved
	// across all configurations.
	SlotsReserved int
}

// Result couples a successful mapping with the search trace.
type Result struct {
	Mapping  *Mapping
	Attempts []Attempt
	Stats    Stats

	// LowerBoundSwitches, when positive, is a provable lower bound on the
	// switch count of any feasible mapping of the same design under the same
	// parameters, established by an exact search (branch-and-bound over the
	// growth sequence). Zero means no exact bound was computed; consumers
	// fall back to Mapping.SeatLowerBound().
	LowerBoundSwitches int
	// LowerBoundExact reports that LowerBoundSwitches is tight: the exact
	// search proved no mapping with fewer switches exists AND the returned
	// mapping attains the bound, so the result is optimal in switch count.
	LowerBoundExact bool
}

// Dim returns the mesh dimensions of the solution.
func (r *Result) Dim() topology.Dim {
	return topology.Dim{Rows: r.Mapping.Topology.Rows, Cols: r.Mapping.Topology.Cols}
}
