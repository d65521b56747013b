package traffic

import (
	"bytes"
	"testing"
)

// FuzzDesignJSON feeds arbitrary bytes to the design parser. The parser must
// never panic, and for every design it accepts the canonical digest must be
// stable under the permutations the canonical form erases: use-case
// order (with parallel/smooth indices remapped to follow), flow order, and
// a JSON write/read round trip.
func FuzzDesignJSON(f *testing.F) {
	f.Add([]byte(`{"name":"d","num_cores":3,"use_cases":[` +
		`{"name":"a","flows":[{"src":0,"dst":1,"bandwidth_mbs":10},{"src":1,"dst":2,"bandwidth_mbs":5,"max_latency_ns":900}]},` +
		`{"name":"b","flows":[{"src":2,"dst":0,"bandwidth_mbs":7}]}],` +
		`"parallel_sets":[[0,1]],"smooth_pairs":[[1,0]]}`))
	f.Add([]byte(`{"name":"t","num_cores":2,"topology":"torus","use_cases":[{"name":"u","flows":[{"src":0,"dst":1,"bandwidth_mbs":1}]}]}`))
	f.Add([]byte(`{"name":"named","core_names":["cpu","dsp"],"use_cases":[{"name":"u","flows":[{"src":1,"dst":0,"bandwidth_mbs":2.5}]}]}`))
	f.Add([]byte(`{"name":"bad","num_cores":0,"use_cases":[]}`))
	f.Add([]byte(`{"name":"huge","num_cores":999999999,"use_cases":[]}`)) // hostile size
	f.Add([]byte(`{"name":"dup","num_cores":2,"use_cases":[{"name":"u","flows":[{"src":0,"dst":1,"bandwidth_mbs":1},{"src":0,"dst":1,"bandwidth_mbs":2}]}]}`))
	f.Add([]byte(`{"name":"fab","num_cores":2,"topology":"hypercube","use_cases":[{"name":"u","flows":[{"src":0,"dst":1,"bandwidth_mbs":1}]}]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected without panicking: fine
		}
		want := d.Digest()

		// The encoding written through permutations must be the sorted
		// copy's.
		if got, ref := appendCanonical(nil, d), appendCanonical(nil, canonicalReference(d)); !bytes.Equal(got, ref) {
			t.Fatalf("canonical encoding\n%s\ndiffers from the reference's\n%s\n(input %q)", got, ref, data)
		}

		// Reversing the use-case order (remapping the index-bearing
		// declarations to follow) must not change the digest.
		perm := reverseUseCases(d)
		if got := perm.Digest(); got != want {
			t.Fatalf("digest changed under use-case reordering: %s vs %s (input %q)", got, want, data)
		}

		// Neither must reversing each use-case's flow order.
		flows := clone(d)
		for _, u := range flows.UseCases {
			for i, j := 0, len(u.Flows)-1; i < j; i, j = i+1, j-1 {
				u.Flows[i], u.Flows[j] = u.Flows[j], u.Flows[i]
			}
		}
		if got := flows.Digest(); got != want {
			t.Fatalf("digest changed under flow reordering: %s vs %s (input %q)", got, want, data)
		}

		// A write/read round trip must preserve validity and the digest.
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted design fails to serialize: %v (input %q)", err, data)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("round-tripped design rejected: %v (input %q)", err, data)
		}
		if got := back.Digest(); got != want {
			t.Fatalf("digest changed over round trip: %s vs %s (input %q)", got, want, data)
		}
	})
}

// clone deep-copies a design.
func clone(d *Design) *Design {
	out := &Design{Name: d.Name, Topology: d.Topology}
	out.Cores = append([]Core(nil), d.Cores...)
	for _, u := range d.UseCases {
		out.UseCases = append(out.UseCases, u.Clone())
	}
	for _, s := range d.ParallelSets {
		out.ParallelSets = append(out.ParallelSets, append([]int(nil), s...))
	}
	out.SmoothPairs = append([][2]int(nil), d.SmoothPairs...)
	return out
}

// reverseUseCases returns a semantically identical design with the use-case
// list reversed and every index-bearing declaration remapped accordingly.
func reverseUseCases(d *Design) *Design {
	out := clone(d)
	n := len(out.UseCases)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		out.UseCases[i], out.UseCases[j] = out.UseCases[j], out.UseCases[i]
	}
	remap := func(idx int) int { return n - 1 - idx }
	for _, set := range out.ParallelSets {
		for i := range set {
			set[i] = remap(set[i])
		}
	}
	for i := range out.SmoothPairs {
		out.SmoothPairs[i][0] = remap(out.SmoothPairs[i][0])
		out.SmoothPairs[i][1] = remap(out.SmoothPairs[i][1])
	}
	return out
}
