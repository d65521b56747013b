package noc

import (
	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/service"
	"nocmap/internal/sim"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"

	// Register the population engines (ga, pso, abc) and the exact
	// branch-and-bound engine with the search registry, so every SDK and CLI
	// consumer sees the full engine roster.
	_ "nocmap/internal/search/exact"
	_ "nocmap/internal/search/population"
)

// The SDK's data model is the toolkit's own, surfaced under stable public
// names. Aliases (not wrappers) keep the two identical: a Design built here
// is the design the mapper runs on, with no conversion layer to drift.
type (
	// Design couples an SoC's core list with its use-cases, parallel sets
	// and smooth-switching constraints — the input of the methodology.
	Design = traffic.Design
	// Core is one IP block of the SoC.
	Core = traffic.Core
	// Flow is a directed guaranteed-throughput traffic stream between two
	// cores within one use-case.
	Flow = traffic.Flow
	// UseCase is one application mode: a named set of flows.
	UseCase = traffic.UseCase

	// Prepared is the output of pre-processing (phases 1 and 2): the
	// use-case roster including generated compound modes, and the
	// smooth-switching groups.
	Prepared = usecase.Prepared

	// Params are the NoC architecture parameters (link width, frequency,
	// TDMA table size, NI shape, growth bound, ...). Start from
	// DefaultParams.
	Params = core.Params

	// Weights score candidate mappings: switch count dominant, mean hops
	// and worst slot-table occupancy breaking ties. Lower cost is better.
	Weights = search.CostWeights

	// Event is one streaming progress notification from a running search;
	// see WithProgress.
	Event = search.Event
	// Stage labels an Event: StageMapped, StageImproved or StageDone.
	Stage = search.Stage

	// Stats are the load statistics of a mapping.
	Stats = core.Stats

	// SimConfig configures the slot-accurate simulator.
	SimConfig = sim.Config
	// SimReport is one use-case's simulation outcome: per-flow delivered
	// bandwidth and observed worst-case latency against the analytic bound.
	SimReport = sim.Result
	// SimFlowStats is one flow's row of a SimReport.
	SimFlowStats = sim.FlowStats

	// VersionInfo is the build identity of this binary or of a remote
	// nocserved (GET /v1/version).
	VersionInfo = service.VersionInfo

	// Timings is the per-stage wall-clock breakdown of one mapping run:
	// queueing (service only), pre-processing, search and summarization, in
	// milliseconds. Local results expose it via Result.Timings; service
	// replies carry it on the MapResponse envelope.
	Timings = service.Timings
)

// Progress stages, re-exported for WithProgress consumers.
const (
	// StageMapped announces the constructive base mapping a search starts
	// from.
	StageMapped = search.StageMapped
	// StageImproved announces a new best-so-far; annealing engines emit one
	// event per strict improvement of their incumbent.
	StageImproved = search.StageImproved
	// StageDone announces an engine's final result.
	StageDone = search.StageDone
)

// DefaultParams returns the architecture defaults used throughout the
// paper's evaluation (32-bit links, 500 MHz, 64-slot TDMA tables).
func DefaultParams() Params { return core.DefaultParams() }

// DefaultWeights returns the default mapping objective: one saved switch
// outweighs any achievable hop or utilization improvement.
func DefaultWeights() Weights { return search.DefaultCostWeights() }

// Engines lists the registered search engines, sorted — the heuristics
// ("greedy", "anneal", "portfolio"), the population engines ("ga", "pso",
// "abc"), the exact lower-bound engine ("exact"), plus anything added via
// the search registry.
func Engines() []string { return search.Names() }

// TopologyKinds lists the interconnect families WithTopology accepts
// ("mesh", "torus").
func TopologyKinds() []string { return topology.KindNames() }

// Prepare runs the pre-processing phases on a design: compound modes are
// generated for every parallel set, and use-cases requiring smooth
// switching are grouped onto shared NoC configurations.
func Prepare(d *Design) (*Prepared, error) { return usecase.Prepare(d) }

// Version reports the running binary's build identity.
func Version() VersionInfo { return service.BuildVersion() }
