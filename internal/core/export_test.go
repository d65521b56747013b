package core

import (
	"nocmap/internal/topology"
	"nocmap/internal/usecase"
)

// ComputeStats exposes the one-shot statistics for the external tests'
// cross-checks.
var ComputeStats = computeStats

// EvaluateFresh scores one placement on a throwaway Evaluator: the
// from-scratch oracle that shared Evaluators and Sessions are checked
// against.
func EvaluateFresh(prep *usecase.Prepared, numCores int, top *topology.Topology,
	coreSwitch, coreNI []int, p Params) (*Result, error) {
	ev, err := NewEvaluator(prep, numCores, top, p)
	if err != nil {
		return nil, err
	}
	return ev.Evaluate(coreSwitch, coreNI)
}
