package traffic

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
)

// Canonicalize returns a semantically identical deep copy of the design in
// canonical form: use-cases sorted by name (with ParallelSets and SmoothPairs
// re-indexed to follow), flows within each use-case sorted by (src, dst),
// compound part lists sorted, every parallel set sorted ascending with the
// sets themselves in lexicographic order, smooth pairs normalized to
// (low, high) and sorted, and the topology tag normalized (empty → "mesh").
// Core order is preserved — core IDs are positional and renumbering them
// would change the design's meaning.
//
// Two designs that differ only in use-case order, flow order, or the order
// of the parallel/smooth declarations canonicalize to equal values, which is
// what makes Digest a usable cache key. Designs on different fabrics do NOT
// canonicalize equal: the topology tag is part of the design's meaning.
func (d *Design) Canonicalize() *Design {
	out := &Design{Name: d.Name, Topology: d.Topology}
	if out.Topology == "" {
		out.Topology = "mesh"
	}
	out.Cores = append([]Core(nil), d.Cores...)

	// Sort use-cases by name and remember where each old index went.
	perm := make([]int, len(d.UseCases)) // perm[old] = position in sorted order
	order := make([]int, len(d.UseCases))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(d.UseCases[a].Name, d.UseCases[b].Name)
	})
	for newIdx, oldIdx := range order {
		perm[oldIdx] = newIdx
		u := d.UseCases[oldIdx].Clone()
		u.SortByPair()
		slices.Sort(u.Parts)
		out.UseCases = append(out.UseCases, u)
	}

	for _, set := range d.ParallelSets {
		ns := make([]int, len(set))
		for i, idx := range set {
			ns[i] = perm[idx]
		}
		slices.Sort(ns)
		out.ParallelSets = append(out.ParallelSets, ns)
	}
	slices.SortFunc(out.ParallelSets, slices.Compare)

	for _, p := range d.SmoothPairs {
		a, b := perm[p[0]], perm[p[1]]
		if a > b {
			a, b = b, a
		}
		out.SmoothPairs = append(out.SmoothPairs, [2]int{a, b})
	}
	slices.SortFunc(out.SmoothPairs, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return out
}

// SortByPair orders the use-case's flows by (src, dst). Validate guarantees
// pair uniqueness, so this order is total; it is the canonical flow order
// used by Digest (SortFlows, by contrast, is the mapper's bandwidth-first
// processing order).
func (u *UseCase) SortByPair() {
	slices.SortFunc(u.Flows, func(a, b Flow) int {
		switch {
		case a.Src < b.Src:
			return -1
		case a.Src > b.Src:
			return 1
		case a.Dst < b.Dst:
			return -1
		case a.Dst > b.Dst:
			return 1
		}
		return 0
	})
}

// Digest returns a deterministic SHA-256 hex digest of the canonicalized
// design. It is independent of JSON field order, use-case order, flow order,
// and the order of the parallel/smooth declarations, so it identifies a
// design up to those permutations — but it does depend on the topology tag,
// so the same traffic targeted at a mesh and at a torus digests differently.
// Bandwidth and latency values are encoded as exact hexadecimal floats — no
// rounding, no locale, no float-printing ambiguity.
func (d *Design) Digest() string {
	sum := sha256.Sum256(appendCanonical(nil, d.Canonicalize()))
	return hex.EncodeToString(sum[:])
}

// appendCanonical appends the canonical byte encoding of an
// already-canonicalized design to b; a nil b is allocated at about the
// encoding's size, so the encoding is written without regrowth. The format is versioned (v2 added the
// topology tag) so an encoding change invalidates old digests instead of
// colliding with them. Strings are quoted by strconv.Quote and lists
// written as "[a b c]": the bytes fmt's %q and %v produced when the format
// was defined. They must never change within a version, because durable
// result stores are keyed by the digest (TestDigestGolden pins it).
func appendCanonical(b []byte, c *Design) []byte {
	if b == nil {
		flows := 0
		for _, u := range c.UseCases {
			flows += len(u.Flows)
		}
		b = make([]byte, 0, 64+32*len(c.Cores)+64*len(c.UseCases)+48*flows)
	}
	b = append(b, "nocmap-design-v2\nname "...)
	b = strconv.AppendQuote(b, c.Name)
	b = append(b, "\ntopology "...)
	b = strconv.AppendQuote(b, c.Topology)
	b = append(b, "\ncores "...)
	b = strconv.AppendInt(b, int64(len(c.Cores)), 10)
	b = append(b, '\n')
	for _, core := range c.Cores {
		b = append(b, "core "...)
		b = strconv.AppendInt(b, int64(core.ID), 10)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, core.Name)
		b = append(b, '\n')
	}
	for _, u := range c.UseCases {
		b = append(b, "usecase "...)
		b = strconv.AppendQuote(b, u.Name)
		b = append(b, " compound="...)
		b = strconv.AppendBool(b, u.Compound)
		b = append(b, " parts=["...)
		for i, p := range u.Parts {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendQuote(b, p)
		}
		b = append(b, "]\n"...)
		for _, f := range u.Flows {
			b = append(b, "flow "...)
			b = strconv.AppendInt(b, int64(f.Src), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(f.Dst), 10)
			b = append(b, ' ')
			b = strconv.AppendFloat(b, f.BandwidthMBs, 'x', -1, 64)
			b = append(b, ' ')
			b = strconv.AppendFloat(b, f.MaxLatencyNS, 'x', -1, 64)
			b = append(b, '\n')
		}
	}
	for _, set := range c.ParallelSets {
		b = append(b, "parallel ["...)
		for i, idx := range set {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(idx), 10)
		}
		b = append(b, "]\n"...)
	}
	for _, p := range c.SmoothPairs {
		b = append(b, "smooth "...)
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, '\n')
	}
	return b
}
