package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the checkout root.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's workloads and
// metrics identical to the tables this program reports from, and within
// the file's format limits. -update rewrites those three lists from the
// tables, keeping the command, paths and run length.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not available:", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	want := f
	want.Workloads, want.EndToEnd, want.PerLayer = nil, nil, nil
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, benchWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, benchMetric{d.name, d.unit, d.better, &d.bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, benchMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatal("BENCHMARK.json differs from the metric tables; regenerate with go test -run TestBenchmarkJSON -update")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	setupBound := 0.0
	for _, m := range f.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v out of range", m.Name, m.Unit, *m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	for _, m := range f.EndToEnd {
		if *m.Bound > setupBound {
			t.Errorf("%s's bound %v exceeds setup_s's %v", m.Name, *m.Bound, setupBound)
		}
	}
	for _, m := range f.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %s: unit %q", m.Name, m.Unit)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", f.RunSeconds)
	}
}

// TestDocListsEveryMetric keeps the package documentation's catalogue
// complete: every workload, and every metric with its unit.
func TestDocListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, w := range workloads {
		if !strings.Contains(doc, "//\t"+w.name+" ") {
			t.Errorf("doc.go does not list workload %s", w.name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		entry := d.name + " [" + d.unit + "]"
		if strings.HasPrefix(d.name, "search.") && strings.Count(d.name, ".") == 2 {
			entry = "search.<engine>." + strings.SplitN(d.name, ".", 3)[2] + " [" + d.unit + "]"
		}
		if !strings.Contains(doc, entry) {
			t.Errorf("doc.go does not list %q", entry)
		}
	}
}
