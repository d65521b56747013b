// Package usecase implements the pre-processing phases of the methodology
// (Sections 3 and 4 of the paper):
//
// Phase 1 generates a compound-mode use-case for every user-declared set of
// use-cases that can run in parallel (PUC input), using the combination rule
// of Section 4 (per-pair bandwidth sum, minimum latency).
//
// Phase 2 builds the switching graph SG (Definition 1) whose vertices are
// use-cases and whose edges join use-cases that require smooth switching,
// then groups use-cases that must share one NoC configuration by taking the
// connected components of SG (Algorithm 1). Use-cases belonging to a
// compound mode automatically require smooth switching with that mode, so a
// compound is connected to each of its constituents.
package usecase

import (
	"fmt"

	"nocmap/internal/graph"
	"nocmap/internal/traffic"
)

// Prepared is the output of pre-processing: the full use-case list (original
// use-cases followed by generated compound modes), the smooth-switching
// groups, and the group index of every use-case. Use-cases in the same group
// must share one NoC configuration; switching between use-cases of different
// groups may re-configure paths and TDMA slot tables.
type Prepared struct {
	// UseCases holds the original use-cases (same order as the design)
	// followed by one generated compound use-case per parallel set.
	UseCases []*traffic.UseCase
	// Groups are the connected components of the switching graph, each a
	// sorted list of indices into UseCases.
	Groups [][]int
	// GroupOf maps a use-case index to its group index.
	GroupOf []int
	// NumOriginal is the number of non-generated use-cases at the front of
	// UseCases.
	NumOriginal int
}

// IsCompound reports whether use-case i was generated by phase 1.
func (p *Prepared) IsCompound(i int) bool { return i >= p.NumOriginal }

// SameGroup reports whether use-cases i and j must share a configuration.
func (p *Prepared) SameGroup(i, j int) bool { return p.GroupOf[i] == p.GroupOf[j] }

// GroupMembers returns the indices sharing use-case i's group, including i.
func (p *Prepared) GroupMembers(i int) []int { return p.Groups[p.GroupOf[i]] }

// Prepare runs phases 1 and 2 on a validated design.
func Prepare(d *traffic.Design) (*Prepared, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{NumOriginal: len(d.UseCases)}
	for _, u := range d.UseCases {
		p.UseCases = append(p.UseCases, u.Clone())
	}

	// Phase 1: generate compound modes for parallel sets.
	compoundOf := make([][]int, 0, len(d.ParallelSets)) // constituents of each compound
	for _, set := range d.ParallelSets {
		parts := make([]*traffic.UseCase, 0, len(set))
		name := "compound"
		for _, idx := range set {
			parts = append(parts, d.UseCases[idx])
			name += "+" + d.UseCases[idx].Name
		}
		comp := traffic.Combine(name, parts)
		if err := comp.Validate(d.NumCores()); err != nil {
			return nil, fmt.Errorf("usecase: generated compound %q invalid: %w", name, err)
		}
		p.UseCases = append(p.UseCases, comp)
		compoundOf = append(compoundOf, set)
	}

	// Phase 2: switching graph over all use-cases (originals + compounds).
	sg := graph.NewUndirected(len(p.UseCases))
	for _, pair := range d.SmoothPairs {
		if err := sg.AddEdge(pair[0], pair[1]); err != nil {
			return nil, fmt.Errorf("usecase: smooth pair %v: %w", pair, err)
		}
	}
	// A compound mode requires smooth switching with each constituent: the
	// transition from a single use-case into the parallel mode (and back)
	// must not change the network configuration.
	for ci, set := range compoundOf {
		compIdx := p.NumOriginal + ci
		for _, idx := range set {
			if err := sg.AddEdge(compIdx, idx); err != nil {
				return nil, fmt.Errorf("usecase: compound edge (%d,%d): %w", compIdx, idx, err)
			}
		}
	}

	p.Groups = sg.Components()
	p.GroupOf = make([]int, len(p.UseCases))
	for gi, grp := range p.Groups {
		for _, u := range grp {
			p.GroupOf[u] = gi
		}
	}
	return p, nil
}

// ReconfigurableSwitches counts the unordered use-case pairs (i, j) whose
// transition permits re-configuration (different groups) and those that must
// be smooth (same group). It quantifies the flexibility Phase 2 discovered.
func (p *Prepared) ReconfigurableSwitches() (reconfig, smooth int) {
	n := len(p.UseCases)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p.SameGroup(i, j) {
				smooth++
			} else {
				reconfig++
			}
		}
	}
	return reconfig, smooth
}
