package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// tinyRun runs the workload at self-test size, one call set.
func tinyRun(t *testing.T, workload string, trace bool, expected string) *report {
	t.Helper()
	rep, err := run(options{workload: workload, seed: 3, trace: trace, size: tinySize, expected: expected, log: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// TestReportsEveryMetric checks that each workload prints exactly the
// metrics BENCHMARK.json names, each with its unit: the end-to-end ones
// untraced, the per-layer ones traced. The traced run must also match the
// untraced run's digest, or the report counts failures.
func TestReportsEveryMetric(t *testing.T) {
	var spec benchmarkSpec
	readJSON(t, "../BENCHMARK.json", &spec)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rep := tinyRun(t, w, trace, "")
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minCalls {
				t.Errorf("%s trace %v: correct %v, %d of %d calls failed", w, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics printed, BENCHMARK.json names %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %v: metric %s not printed", w, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %v: metric %s unit %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				} else if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptDigestFails checks that a wrong recorded digest fails every
// call, traced or not: fail_frac is 1.
func TestCorruptDigestFails(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w, trace, "0000000000000000")
			if rep.Correct || rep.Attempted == 0 || rep.Failed != rep.Attempted {
				t.Errorf("%s trace %v: correct %v, %d of %d calls failed; want all", w, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
		}
	}
}

// TestMetricsDocumented checks that metrics.json explains every workload
// and per-layer metric of BENCHMARK.json, and expected.json records a
// digest for every workload under both recorded seeds.
func TestMetricsDocumented(t *testing.T) {
	var spec benchmarkSpec
	readJSON(t, "../BENCHMARK.json", &spec)
	var doc struct {
		Workloads []struct{ Name, Why, Loads string } `json:"workloads"`
		PerLayer  []struct{ Name, Why, Moves string } `json:"per_layer"`
	}
	readJSON(t, "metrics.json", &doc)
	documented := make(map[string]bool)
	for _, w := range doc.Workloads {
		documented[w.Name] = w.Why != "" && w.Loads != ""
	}
	for _, m := range doc.PerLayer {
		documented[m.Name] = m.Why != "" && m.Moves != ""
	}
	for _, w := range spec.Workloads {
		if !documented[w.Name] {
			t.Errorf("workload %s lacks a why and loads in metrics.json", w.Name)
		}
	}
	for _, m := range spec.PerLayer {
		if !documented[m.Name] && !documented[spanBase(m.Name)] {
			t.Errorf("per-layer metric %s lacks a why and moves in metrics.json", m.Name)
		}
	}
	var exp expectedDigests
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{exp.DefaultSeed, exp.ConfirmSeed} {
		for _, w := range workloadNames {
			if exp.Digests[strconv.FormatInt(seed, 10)][w] == "" {
				t.Errorf("expected.json has no digest for %s under seed %d", w, seed)
			}
		}
	}
}

// spanBase strips a timed span's .p50, .p99 or _n suffix.
func spanBase(name string) string {
	for _, suf := range []string{".p50", ".p99", "_n"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			return base
		}
	}
	return name
}
