// Package noc is the public SDK of the nocmap toolkit: a composable,
// context-first API over the complete multi-use-case NoC mapping pipeline
// of Murali et al., "A Methodology for Mapping Multiple Use-Cases onto
// Networks on Chips" (DATE 2006).
//
// The pipeline has three stages, each reachable on its own:
//
//   - Construct or load a design. LoadDesign/LoadDesignFile parse the JSON
//     interchange format; NewDesign starts a DesignBuilder for typed
//     in-process construction of cores, use-cases, flows, parallel sets and
//     smooth-switching constraints.
//   - Map it. Map(ctx, design, opts...) runs pre-processing, the selected
//     search engine and analytic verification, configured through
//     functional options (WithEngine, WithTopology, WithWeights, WithSeed,
//     WithBudget for the job deadline, WithProgress for streaming search
//     events, ...).
//   - Consume the Result: a stable JSON summary (fabric, statistics,
//     area/power, placement, verification verdicts) plus back-end methods
//     for local results — WriteVHDL, WriteConfig, WritePlacement, the
//     slot-accurate simulator (Simulate, SwitchCost, SimVerify).
//
// For remote execution, Client speaks the versioned /v1 HTTP surface of the
// nocserved daemon (POST /v1/map, GET /v1/jobs/{id}, /v1/stats,
// /v1/version), sharing its result cache across callers; an answer the job
// deadline cut short comes back with MapResponse.Truncated set and is not
// cached. NewServer embeds that same service in any Go program. A design
// mapped in-process and the same design mapped through the service produce
// identical Result JSON.
//
// All five command-line binaries (nocmap, nocgen, nocsim, nocbench,
// nocserved) are thin shells over this package — the SDK is the only
// blessed entry point into the toolkit, so anything the tools do, an
// embedding program can do too.
package noc
