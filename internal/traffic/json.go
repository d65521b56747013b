package traffic

import (
	"encoding/json"
	"fmt"
	"io"
)

// MaxCores bounds the num_cores shorthand of the interchange format — far
// beyond any SoC (the paper's designs have ~30 cores) but small enough that
// parsing a hostile count cannot exhaust memory.
const MaxCores = 1 << 16

// DesignJSON is the interchange representation of a Design: the format
// nocgen writes, nocmap reads and the mapping service embeds in its
// requests. Core names are optional; cores may be given either as a count
// or as a name list. Design converts it into a validated Design.
type DesignJSON struct {
	Name         string        `json:"name"`
	NumCores     int           `json:"num_cores,omitempty"`
	CoreNames    []string      `json:"core_names,omitempty"`
	UseCases     []UseCaseJSON `json:"use_cases"`
	ParallelSets [][]int       `json:"parallel_sets,omitempty"`
	SmoothPairs  [][2]int      `json:"smooth_pairs,omitempty"`
	Topology     string        `json:"topology,omitempty"`
}

// UseCaseJSON is the interchange representation of a UseCase.
type UseCaseJSON struct {
	Name  string     `json:"name"`
	Flows []FlowJSON `json:"flows"`
}

// FlowJSON is the interchange representation of a Flow.
type FlowJSON struct {
	Src       int     `json:"src"`
	Dst       int     `json:"dst"`
	Bandwidth float64 `json:"bandwidth_mbs"`
	Latency   float64 `json:"max_latency_ns,omitempty"`
}

// JSON returns the design in the interchange representation, with every
// core named. The result shares the design's declaration slices.
func (d *Design) JSON() *DesignJSON {
	out := &DesignJSON{
		Name:         d.Name,
		ParallelSets: d.ParallelSets,
		SmoothPairs:  d.SmoothPairs,
		Topology:     d.Topology,
	}
	for _, c := range d.Cores {
		out.CoreNames = append(out.CoreNames, c.Name)
	}
	for _, u := range d.UseCases {
		uj := UseCaseJSON{Name: u.Name}
		for _, f := range u.Flows {
			uj.Flows = append(uj.Flows, FlowJSON{
				Src: int(f.Src), Dst: int(f.Dst),
				Bandwidth: f.BandwidthMBs, Latency: f.MaxLatencyNS,
			})
		}
		out.UseCases = append(out.UseCases, uj)
	}
	return out
}

// Design converts the interchange representation into a validated Design.
// The result shares the receiver's declaration slices.
func (in *DesignJSON) Design() (*Design, error) {
	d := &Design{
		Name:         in.Name,
		ParallelSets: in.ParallelSets,
		SmoothPairs:  in.SmoothPairs,
		Topology:     in.Topology,
	}
	switch {
	case len(in.CoreNames) > 0:
		d.Cores = make([]Core, len(in.CoreNames))
		for i, name := range in.CoreNames {
			d.Cores[i] = Core{ID: CoreID(i), Name: name}
		}
	case in.NumCores > 0:
		// Cap before MakeCores allocates one named struct per claimed core:
		// a hostile count must not exhaust memory ahead of validation. (The
		// core_names path is naturally bounded by the input length.)
		if in.NumCores > MaxCores {
			return nil, fmt.Errorf("traffic: design %q: num_cores %d exceeds limit %d", in.Name, in.NumCores, MaxCores)
		}
		d.Cores = MakeCores(in.NumCores)
	default:
		return nil, fmt.Errorf("traffic: design %q: neither core_names nor num_cores given", in.Name)
	}
	// Every slice is allocated at its final length; the use-cases share one
	// backing array.
	if n := len(in.UseCases); n > 0 {
		ucs := make([]UseCase, n)
		d.UseCases = make([]*UseCase, n)
		for i, uj := range in.UseCases {
			u := &ucs[i]
			u.Name = uj.Name
			if len(uj.Flows) > 0 {
				u.Flows = make([]Flow, len(uj.Flows))
			}
			for k, fj := range uj.Flows {
				u.Flows[k] = Flow{
					Src: CoreID(fj.Src), Dst: CoreID(fj.Dst),
					BandwidthMBs: fj.Bandwidth, MaxLatencyNS: fj.Latency,
				}
			}
			d.UseCases[i] = u
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// WriteJSON serializes the design in the tool interchange format.
func (d *Design) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d.JSON())
}

// ReadJSON parses a design from the tool interchange format, rejecting
// unknown fields, and validates it.
func ReadJSON(r io.Reader) (*Design, error) {
	var in DesignJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("traffic: decode design: %w", err)
	}
	return in.Design()
}
