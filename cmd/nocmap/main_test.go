package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/usecase"
)

// designFile writes a minimal valid design and returns its path.
func designFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "design.json")
	design := `{
  "name": "tiny",
  "num_cores": 4,
  "use_cases": [
    {"name": "a", "flows": [{"src": 0, "dst": 1, "bandwidth_mbs": 50}, {"src": 2, "dst": 3, "bandwidth_mbs": 20}]}
  ]
}`
	if err := os.WriteFile(path, []byte(design), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunMissingInputExits2(t *testing.T) {
	code, _, stderr := runCapture(t)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-in is required") {
		t.Errorf("stderr %q lacks -in diagnosis", stderr)
	}
}

func TestRunUnknownEngineExits2(t *testing.T) {
	code, _, stderr := runCapture(t, "-in", designFile(t), "-engine", "quantum")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	for _, want := range []string{"quantum", "greedy", "anneal", "portfolio"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr %q should mention %q", stderr, want)
		}
	}
}

func TestRunUnknownTopologyExits2(t *testing.T) {
	code, _, stderr := runCapture(t, "-in", designFile(t), "-topology", "hypercube")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	for _, want := range []string{"hypercube", "mesh, torus"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr %q should mention %q", stderr, want)
		}
	}
}

func TestRunMapsMeshAndTorus(t *testing.T) {
	in := designFile(t)
	for _, topo := range []string{"", "mesh", "torus"} {
		args := []string{"-in", in}
		if topo != "" {
			args = append(args, "-topology", topo)
		}
		code, stdout, stderr := runCapture(t, args...)
		if code != 0 {
			t.Fatalf("-topology %q: exit %d, stderr %q", topo, code, stderr)
		}
		if !strings.Contains(stdout, "verification: all invariants hold") {
			t.Errorf("-topology %q: stdout %q lacks verification line", topo, stdout)
		}
	}
}

func TestRunProgressPrefixesElapsedTime(t *testing.T) {
	code, _, stderr := runCapture(t, "-in", designFile(t), "-engine", "anneal", "-seed", "2", "-progress")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	elapsed := regexp.MustCompile(`^progress: \[\+\d+\.\d{3}s\] `)
	lines := 0
	for _, line := range strings.Split(stderr, "\n") {
		if !strings.HasPrefix(line, "progress:") {
			continue
		}
		lines++
		if !elapsed.MatchString(line) {
			t.Errorf("progress line %q lacks elapsed-time prefix", line)
		}
	}
	if lines == 0 {
		t.Fatal("no progress lines on stderr")
	}
	// The annealer's final event carries cumulative move counters.
	if !regexp.MustCompile(`done .*moves=\d+ accepted=\d+`).MatchString(stderr) {
		t.Errorf("stderr %q lacks move counters on the done event", stderr)
	}
}

// rejectsFabricFile runs nocmap with -topology @path plus extra flags and
// checks that the fabric file is refused as a usage error naming the valid
// families, without being read and without any output on stdout.
func rejectsFabricFile(t *testing.T, path string, extra ...string) {
	t.Helper()
	args := append([]string{"-in", designFile(t), "-topology", "@" + path}, extra...)
	code, stdout, stderr := runCapture(t, args...)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, stderr)
	}
	if stdout != "" || !strings.Contains(stderr, `"@`+path+`"`) || !strings.Contains(stderr, "valid choices: mesh, torus") {
		t.Errorf("stdout %q, stderr %q; want the rejected argument and mesh, torus", stdout, stderr)
	}
}

// A fabric file is not a topology family: even a well-formed one is rejected
// as a usage error naming the valid families.
func TestRunFabricFileTopologyExits2(t *testing.T) {
	fabric := filepath.Join(t.TempDir(), "ring.json")
	if err := os.WriteFile(fabric, []byte(`{"name":"ring4","switches":4,"links":[[0,1],[1,2],[2,3],[3,0]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rejectsFabricFile(t, fabric)
}

// A malformed fabric file is never opened, so it fails as a usage error
// (exit 2) rather than as a load error (exit 1).
func TestRunBrokenFabricFileExits2(t *testing.T) {
	fabric := filepath.Join(t.TempDir(), "broken.json")
	// Disconnected: switch 3 unreachable.
	if err := os.WriteFile(fabric, []byte(`{"switches":4,"links":[[0,1],[1,2]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rejectsFabricFile(t, fabric)
}

// With -server the fabric file is rejected locally, before any round trip.
func TestRunServerFabricFileTopologyExits2(t *testing.T) {
	rejectsFabricFile(t, "nope.json", "-server", "http://localhost:1")
}

// deadlineEngine maps the greedy base and then waits for ctx to end: a
// local run that only its -budget deadline stops.
type deadlineEngine struct{}

func (deadlineEngine) Name() string { return "deadline-cli" }

func (deadlineEngine) Search(ctx context.Context, prep *usecase.Prepared, numCores int,
	p core.Params, opts search.Options) (*core.Result, error) {
	base, _, err := opts.GreedyStart(ctx, prep, numCores, p)
	if err != nil {
		return nil, err
	}
	<-ctx.Done()
	return base, nil
}

// TestRunLocalTruncatedHeader: a local run the -budget deadline cut short
// says so in its "mapped onto" line, as the remote verdict does; a complete
// run does not.
func TestRunLocalTruncatedHeader(t *testing.T) {
	search.Register("deadline-cli", func() search.Engine { return deadlineEngine{} })
	in := designFile(t)
	code, stdout, stderr := runCapture(t, "-in", in, "-engine", "deadline-cli", "-budget", "20ms")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "(engine deadline-cli, truncated by the deadline)") {
		t.Errorf("truncated run's header does not say so:\n%s", stdout)
	}
	code, stdout, stderr = runCapture(t, "-in", in, "-engine", "greedy")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if strings.Contains(stdout, "truncated") {
		t.Errorf("complete run's output mentions truncation:\n%s", stdout)
	}
}
