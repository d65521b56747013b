package traffic

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
)

// Digest returns a deterministic SHA-256 hex digest of the design's
// canonical form: use-cases sorted by name (with ParallelSets and
// SmoothPairs re-indexed to follow), flows within each use-case sorted by
// (src, dst), compound part lists sorted, every parallel set sorted
// ascending with the sets themselves in lexicographic order, smooth pairs
// normalized to (low, high) and sorted, and the topology tag normalized
// (empty → "mesh"). Core order is preserved — core IDs are positional and
// renumbering them would change the design's meaning.
//
// So the digest of a valid design is independent of JSON field order,
// use-case order, flow order, and the order of the parallel/smooth
// declarations, which is what makes it a usable cache key — but it does
// depend on the topology tag, so the same traffic targeted at a mesh and at
// a torus digests differently. Bandwidth and latency values are encoded as
// exact hexadecimal floats — no rounding, no locale, no float-printing
// ambiguity.
func (d *Design) Digest() string {
	sum := sha256.Sum256(appendCanonical(nil, d))
	return hex.EncodeToString(sum[:])
}

// appendCanonical appends the canonical byte encoding of the design to b,
// writing it through sorted permutations instead of a sorted copy; a nil b
// is allocated at about the encoding's size, so the encoding is written
// without regrowth. The format is versioned (v2 added the topology tag) so
// an encoding change invalidates old digests instead of colliding with
// them. Strings are quoted by strconv.Quote and lists written as
// "[a b c]": the bytes fmt's %q and %v produced when the format was
// defined. They must never change within a version, because durable result
// stores are keyed by the digest (TestDigestGolden pins it).
func appendCanonical(b []byte, d *Design) []byte {
	flows, maxFlows := 0, 0
	for _, u := range d.UseCases {
		flows += len(u.Flows)
		maxFlows = max(maxFlows, len(u.Flows))
	}
	if b == nil {
		b = make([]byte, 0, 64+32*len(d.Cores)+64*len(d.UseCases)+48*flows)
	}
	topology := d.Topology
	if topology == "" {
		topology = "mesh"
	}
	b = append(b, "nocmap-design-v2\nname "...)
	b = strconv.AppendQuote(b, d.Name)
	b = append(b, "\ntopology "...)
	b = strconv.AppendQuote(b, topology)
	b = append(b, "\ncores "...)
	b = strconv.AppendInt(b, int64(len(d.Cores)), 10)
	b = append(b, '\n')
	for _, core := range d.Cores {
		b = append(b, "core "...)
		b = strconv.AppendInt(b, int64(core.ID), 10)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, core.Name)
		b = append(b, '\n')
	}

	// Use-cases by name; perm[old] is a use-case's canonical position.
	order := make([]int, len(d.UseCases))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(d.UseCases[a].Name, d.UseCases[b].Name)
	})
	perm := make([]int, len(d.UseCases))
	keys, at := make([]uint64, maxFlows), make([]int32, maxFlows)
	var parts []string
	for newIdx, oldIdx := range order {
		perm[oldIdx] = newIdx
		u := d.UseCases[oldIdx]
		b = append(b, "usecase "...)
		b = strconv.AppendQuote(b, u.Name)
		b = append(b, " compound="...)
		b = strconv.AppendBool(b, u.Compound)
		b = append(b, " parts=["...)
		parts = append(parts[:0], u.Parts...)
		slices.Sort(parts)
		for i, p := range parts {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendQuote(b, p)
		}
		b = append(b, "]\n"...)
		for _, j := range pairOrder(u.Flows, keys, at) {
			f := u.Flows[j]
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

	sets := make([][]int, 0, len(d.ParallelSets))
	for _, set := range d.ParallelSets {
		ns := make([]int, len(set))
		for i, idx := range set {
			ns[i] = perm[idx]
		}
		slices.Sort(ns)
		sets = append(sets, ns)
	}
	slices.SortFunc(sets, slices.Compare)
	smooth := make([][2]int, 0, len(d.SmoothPairs))
	for _, p := range d.SmoothPairs {
		a, b := perm[p[0]], perm[p[1]]
		if a > b {
			a, b = b, a
		}
		smooth = append(smooth, [2]int{a, b})
	}
	slices.SortFunc(smooth, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	for _, set := range sets {
		b = append(b, "parallel ["...)
		for i, idx := range set {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(idx), 10)
		}
		b = append(b, "]\n"...)
	}
	for _, p := range smooth {
		b = append(b, "smooth "...)
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, '\n')
	}
	return b
}

// pairOrder returns the indices of the flows in (src, dst) order, in at,
// using keys as scratch; each must have room for every flow. Flows with the
// same pair, which only an invalid design has, keep their relative order.
// When every core ID is below 2^21 and there are at most 2^22 flows (any
// design a request body can carry), each flow packs into one word as
// src<<43|dst<<22|index and one native sort orders them; otherwise a stable
// comparison sort of the indices does.
func pairOrder(flows []Flow, keys []uint64, at []int32) []int32 {
	const idBits, idxBits = 21, 22
	keys, at = keys[:len(flows)], at[:len(flows)]
	packed := len(flows) <= 1<<idxBits
	for i, f := range flows {
		if f.Src < 0 || f.Src >= 1<<idBits || f.Dst < 0 || f.Dst >= 1<<idBits {
			packed = false
			break
		}
		keys[i] = uint64(f.Src)<<(idBits+idxBits) | uint64(f.Dst)<<idxBits | uint64(i)
	}
	if packed {
		slices.Sort(keys)
		for r, k := range keys {
			at[r] = int32(k & (1<<idxBits - 1))
		}
		return at
	}
	for i := range at {
		at[i] = int32(i)
	}
	slices.SortStableFunc(at, func(a, b int32) int {
		return cmp.Or(cmp.Compare(flows[a].Src, flows[b].Src), cmp.Compare(flows[a].Dst, flows[b].Dst))
	})
	return at
}
