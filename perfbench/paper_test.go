package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.json from the current code")

// computedPaper computes the figures once per test binary.
var computedPaper = sync.OnceValues(paperFigures)

func TestPaperPins(t *testing.T) {
	got, err := computedPaper()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(paperFile{
			Note:   "Paper-figure values every perfbench run must reproduce exactly; they agree with BENCH_seed.json to its 4 significant digits. -1 marks an infeasible point. Regenerate with: go test -run TestPaperPins -update",
			Values: got,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/paper.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pins, err := pinnedPaper()
	if err != nil {
		t.Fatal(err)
	}
	if drift := checkPaper(pins, got); len(drift) > 0 {
		t.Fatalf("paper figures drifted:\n%s", strings.Join(drift, "\n"))
	}
}

// TestPaperPinsReproduceSeedRecord checks the pins against the seed record,
// whose values are rounded to 4 significant digits.
func TestPaperPinsReproduceSeedRecord(t *testing.T) {
	data, err := os.ReadFile("../BENCH_seed.json")
	if err != nil {
		t.Skip("seed record not available:", err)
	}
	var seed struct {
		Benchmarks []map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &seed); err != nil {
		t.Fatal(err)
	}
	prefix := map[string]string{
		"BenchmarkFig6aSoCDesigns": "fig6a", "BenchmarkFig6bSpread": "fig6b", "BenchmarkFig6cBottleneck": "fig6c",
		"BenchmarkFig7aAreaFrequency": "fig7a", "BenchmarkFig7bDVSDFS": "fig7b", "BenchmarkFig7cParallel": "fig7c",
		"BenchmarkSec62Extremes": "sec62", "BenchmarkHeadline": "headline",
		"BenchmarkAblationPreference": "a1", "BenchmarkAblationUnified": "a2", "BenchmarkAblationSlotTable": "a3",
	}
	pins, err := pinnedPaper()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, b := range seed.Benchmarks {
		p, ok := prefix[b["name"].(string)]
		if !ok {
			continue
		}
		for k, v := range b {
			if k == "name" || k == "iterations" || k == "ns_per_op" {
				continue
			}
			want := v.(float64)
			got, ok := pins[p+"."+k]
			if !ok {
				t.Errorf("%s.%s is not pinned", p, k)
				continue
			}
			if math.Abs(got-want) > 5e-4*math.Abs(want)+1e-12 {
				t.Errorf("%s.%s pinned %v, seed record %v", p, k, got, want)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d seed values checked", checked)
	}
}

// TestPaperDriftFailsTheRun pins one wrong value: the run must say so,
// report correct=false with that one failure, and exit non-zero.
func TestPaperDriftFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload and the paper figures")
	}
	pins, err := pinnedPaper()
	if err != nil {
		t.Fatal(err)
	}
	pins["fig6a.norm_D1"] += 0.001
	t.Chdir(t.TempDir())
	var stdout, stderr bytes.Buffer
	sz := benchSizes
	sz.setupReps, sz.minOps = 2, 1
	code := runCLI([]string{"--workload", "cold-greedy", "--seed", "3", "--seconds", "0.3"}, &stdout, &stderr, pins, sz)
	if code == 0 {
		t.Fatalf("exit code 0 with a drifted pin; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "paper figure drift: fig6a.norm_D1") {
		t.Errorf("stderr does not name the drift:\n%s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct bool                       `json:"correct"`
		Failed  int                        `json:"failed"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct || res.Failed != 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result correct=%t, %d failed, %d metrics; want false, 1, %d; stderr:\n%s",
			res.Correct, res.Failed, len(res.Metrics), len(endToEnd), stderr.String())
	}
}
