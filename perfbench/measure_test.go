package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestTracedRepMatchesUntraced shrinks every workload to a few small
// worlds and checks that the traced rep, with the wrapped mobility model
// and the CPU profiler on, ends every world with the untraced reps'
// digest and summary.
func TestTracedRepMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, 1, 0, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Fatalf("ops=%d failed=%d problems=%v", res.Attempted, res.Failed, res.Problems)
			}
			if res.Attempted != minReps+1 {
				t.Errorf("ops=%d, want %d timed reps and the traced one", res.Attempted, minReps)
			}
			for _, m := range []string{"tick_ms.samples", "mobility.ns_per_vehicle_step", "sim.events"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v: the traced rep recorded nothing", m, res.Metrics[m].Value)
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run emits exactly the
// metrics BENCHMARK.json declares, with the declared units, and that the
// workloads match.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchSpec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared, known []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if !equal(declared, known) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", declared, known)
	}
	w, _ := lookup("highway-mobility")
	for _, tc := range []struct {
		trace bool
		want  []specMetric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := measure(w, 1, 0, tc.trace, true)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range tc.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		if !equal(got, want) {
			t.Errorf("trace=%v emits %v, BENCHMARK.json declares %v", tc.trace, got, want)
		}
	}
}

func equal(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
