package noc

import (
	"encoding/json"
	"errors"
	"io"

	"nocmap/internal/core"
	"nocmap/internal/rtlgen"
	"nocmap/internal/service"
	"nocmap/internal/sim"
	"nocmap/internal/usecase"
)

// Summary is the stable JSON encoding of one mapping: fabric shape, load
// statistics, area/power estimates, core placement, use-case roster and
// analytic verification verdicts. It is byte-identical whether the mapping
// ran in-process or through the /v1 service.
type Summary = service.Result

// UseCaseSummary is one use-case's row of a Summary.
type UseCaseSummary = service.UseCaseResult

// ErrRemoteResult is returned by Result methods that need the in-process
// mapping (back-end generation, simulation) when the result was decoded
// from the wire, where only the summary travels.
var ErrRemoteResult = errors.New("noc: result carries no in-process mapping (mapped remotely?); re-map locally for back-end artifacts")

// Result is the outcome of a local Map call: the stable Summary (which is
// all that serializes) plus handles into the in-process mapping that power
// the back-end methods.
type Result struct {
	Summary

	engine    string
	mapping   *core.Mapping
	prep      *usecase.Prepared
	timings   Timings
	truncated bool
}

// Engine names the search engine that produced the result.
func (r *Result) Engine() string { return r.engine }

// Truncated reports whether the context — the WithBudget deadline or the
// caller's own — had ended by the time the search returned: the result is
// the engine's best so far, not a complete run. Like Timings it is not part
// of the Summary encoding.
func (r *Result) Truncated() bool { return r.truncated }

// Timings reports where the wall-clock of the Map call went, broken down by
// pipeline stage (prepare, search, summarize). The breakdown is diagnostic
// metadata, not part of the stable Summary encoding.
func (r *Result) Timings() Timings { return r.timings }

// Params returns the architecture parameters the mapping ran with.
func (r *Result) Params() (Params, error) {
	if r.mapping == nil {
		return Params{}, ErrRemoteResult
	}
	return r.mapping.Params, nil
}

// WriteJSON writes the indented stable JSON encoding of the summary.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Summary)
}

// WriteVHDL writes the structural VHDL netlist of the NoC.
func (r *Result) WriteVHDL(w io.Writer) error {
	if r.mapping == nil {
		return ErrRemoteResult
	}
	return rtlgen.WriteVHDL(w, r.mapping)
}

// WriteConfig writes the slot-table configuration image of one use-case
// (an index into Summary.UseCases).
func (r *Result) WriteConfig(w io.Writer, useCase int) error {
	if r.mapping == nil {
		return ErrRemoteResult
	}
	return rtlgen.WriteConfig(w, r.mapping, useCase)
}

// WritePlacement writes the core-to-switch placement table.
func (r *Result) WritePlacement(w io.Writer) error {
	if r.mapping == nil {
		return ErrRemoteResult
	}
	return rtlgen.WritePlacement(w, r.mapping)
}

// Simulate exercises one use-case's configuration on the slot-accurate
// simulator and reports per-flow delivered bandwidth and worst-case
// latency.
func (r *Result) Simulate(useCase int, cfg SimConfig) (*SimReport, error) {
	if r.mapping == nil {
		return nil, ErrRemoteResult
	}
	return sim.Run(r.mapping, useCase, cfg)
}

// SwitchCost estimates the reconfiguration cost, in cycles, of switching
// the NoC from use-case a's configuration to use-case b's.
func (r *Result) SwitchCost(a, b int, cfg SimConfig) (int, error) {
	if r.mapping == nil {
		return 0, ErrRemoteResult
	}
	return sim.SwitchCost(r.mapping, a, b, cfg)
}

// SimVerify validates every configuration against the analytic guarantees
// by simulating the given number of slots; it returns one description per
// discrepancy (bandwidth shortfall, latency overrun), empty when the
// simulation matches the analysis.
func (r *Result) SimVerify(slots int) ([]string, error) {
	if r.mapping == nil {
		return nil, ErrRemoteResult
	}
	return sim.VerifyAgainstAnalytic(r.mapping, slots), nil
}
