package core

// ComputeStats exposes the one-shot statistics for the external tests'
// cross-checks.
var ComputeStats = computeStats
