// Package nocmap reproduces "A Methodology for Mapping Multiple Use-Cases
// onto Networks on Chips" (Murali, Coenen, Radulescu, Goossens, De Micheli,
// DATE 2006).
//
// The library designs the smallest Network-on-Chip — on a mesh or a
// torus — that satisfies the bandwidth and latency constraints of every use-case of an SoC. It implements the paper's three
// design phases:
//
//  1. Use-case pre-processing (internal/usecase): compound modes are
//     synthesized for use-cases that run in parallel, and use-cases requiring
//     smooth switching are grouped onto a shared NoC configuration via
//     connected components of the switching graph.
//  2. Unified mapping and NoC configuration (internal/core): a greedy
//     heuristic maps cores to switches while simultaneously selecting paths
//     and reserving TDMA slot-table entries, with separate residual resource
//     state per use-case.
//  3. Back end (internal/rtlgen, internal/sim): VHDL netlist plus slot-table
//     configuration generation, and a slot-accurate simulator that validates
//     guaranteed-throughput connections.
//
// On top of Phase 2 sits the pluggable search subsystem (internal/search):
// a common Engine interface over the prepared use-cases with three
// registered strategies — greedy (the paper's Algorithm 2 unchanged), anneal
// (simulated annealing over core placements, probing meshes smaller than
// the greedy solution), and portfolio (a parallel multi-start pool racing
// greedy against deterministically-seeded annealers under a shared
// context). Engines are selected with nocmap's -engine flag;
// future strategies (genetic, tabu, ILP) plug in by implementing
// search.Engine.
//
// Candidate placements are scored by the incremental evaluation engine
// (core.Evaluator): inputs are validated once per (design, topology,
// params), the flow work list, per-pair routing plans and candidate mesh
// paths are precomputed, and TDMA slot tables live in a pooled scratch
// arena instead of being reallocated per candidate. Its Session adds
// two-phase delta moves (TryMove/Keep/Undo) that tear down and re-route
// only the flows whose cores moved, with exact capacity prechecks and a
// per-group from-scratch fallback; the move path runs without heap
// allocations (TestSessionMoveZeroAlloc) and perfbench times it as
// core.try_move_us. One Evaluator is shared, concurrency-safe, by all
// portfolio workers exploring the same fabric.
//
// Above the search subsystem sits the serving layer (internal/service): a
// concurrent mapping service that keys every request by a canonical digest
// of the design (traffic.Design.Digest — invariant under JSON field order
// and use-case ordering), answers repeats from an LRU result cache,
// collapses identical in-flight requests into one engine run
// (single-flight), and executes jobs on a bounded worker pool with
// per-job deadlines, queue backpressure, and a queryable
// queued/running/done/failed lifecycle. The job deadline is the only wall
// clock a request carries, and it stays out of the digest: an answer it cut
// short is served as truncated and never stored. cmd/nocserved exposes the
// service over a versioned HTTP/JSON surface (POST /v1/map, GET
// /v1/jobs/{id}, /v1/stats, /v1/version, /healthz) and cmd/nocmap -server
// delegates to a running daemon. ARCHITECTURE.md maps the full layering; docs/cli.md
// documents every binary and endpoint.
//
// The public face of all of this is the SDK in pkg/noc: typed design
// construction (noc.DesignBuilder, noc.LoadDesign), one composable
// noc.Map(ctx, design, opts...) entry point with functional options
// (WithEngine, WithTopology, WithWeights, WithSeed, WithBudget,
// WithProgress for streaming search events), a noc.Result with a stable
// JSON encoding plus back-end methods (WriteVHDL, Simulate, ...), a
// noc.Client for the /v1 service, and noc.NewServer for embedding the
// daemon. The five cmd/ binaries are thin shells over pkg/noc; external
// programs embed the mapper the same way (docs/sdk.md has a quickstart).
//
// The pipeline is topology-generic over two families: a topology.Spec in
// core.Params selects the paper's 2-D mesh or a torus whose wrap-aware
// minimal-path routing takes the shorter ring direction per dimension. The
// growth loop, the search engines and the service all honour the spec; the
// design's topology tag participates in the canonical digest, so cached
// results never collide across fabrics. Select with nocmap -topology
// mesh|torus, a "topology" field in the design or service request JSON, and
// compare fabrics with nocbench -fig topology.
//
// The worst-case baseline of the paper's reference [25] lives in
// internal/baseline, analytic area and power models in internal/area and
// internal/power, and the paper's benchmark suite (D1-D4 SoC stand-ins plus
// Spread/Bottleneck synthetic generators) in internal/bench. Every figure of
// the paper's evaluation is regenerated by internal/experiments and printed
// by cmd/nocbench. The one benchmark is perfbench (bash perfbench/run.sh): it
// pins every figure exactly, times every engine and the Session move, and
// drives the service end to end.
package nocmap
