package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBench drives the command in process and parses its last line.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := runMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if code != 2 && len(lines) > 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
		}
	}
	return code, res, stdout.String() + stderr.String()
}

// TestEveryWorkloadPrintsItsMetrics runs every workload of BENCHMARK.json
// at scale 8 for a fraction of a second, untraced and traced, and checks
// that each prints exactly the metrics BENCHMARK.json names, with their
// units, and passes its correctness gate.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			t.Run(w.Name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "trace.json")
				code, res, out := runBench(t, "--workload", w.Name, "--seed", "3", "--seconds", "0.2",
					"--scale", "8", "--trace", strconv.Itoa(trace), "--trace-out", traceOut)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d failed:\n%s", code, res.Correct, res.Failed, res.Attempted, out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
					if !strings.Contains(out, m.Name) {
						t.Errorf("metric %s missing from the report", m.Name)
					}
				}
				if trace == 1 {
					var spans struct {
						Spans []span `json:"spans"`
					}
					data, err := os.ReadFile(traceOut)
					if err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(data, &spans); err != nil || len(spans.Spans) == 0 {
						t.Fatalf("span file: %d spans, %v", len(spans.Spans), err)
					}
				}
			})
		}
	}
}

// TestMismatchFails checks the correctness gate: a Figure 1 whose decode
// count differs from the reference is a mismatch, reported with exit
// status 1 and correct false.
func TestMismatchFails(t *testing.T) {
	orig := referenceJSON
	t.Cleanup(func() { referenceJSON = orig })
	referenceJSON = bytes.ReplaceAll(orig, []byte(`"decodes": 121`), []byte(`"decodes": 120`))
	code, res, out := runBench(t, "--workload", "fig1-cold", "--seconds", "0.1", "--scale", "8")
	if code != 1 || res.Correct || res.Failed == 0 {
		t.Fatalf("exit %d, correct %v, %d failed; want exit 1 on a mismatch:\n%s", code, res.Correct, res.Failed, out)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig1-cold", "--trace", "2"},
		{"--workload", "fig1-cold", "--seconds", "0"},
	} {
		if code, _, _ := runBench(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
