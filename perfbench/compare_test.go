package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs returns n synthetic values around centre with a fixed ±1% jitter.
func runs(n int, centre float64) []float64 {
	jitter := []float64{0, 0.004, -0.006, 0.01, -0.002, 0.007, -0.009, 0.003, -0.004, 0.001}
	out := make([]float64, n)
	for i := range out {
		out[i] = centre * (1 + jitter[i%len(jitter)])
	}
	return out
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	base := runs(10, 100)
	for _, tc := range []struct {
		name         string
		head         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"identical", base, true, 0.1, unchanged},
		{"20% slower throughput", scale(base, 0.8), true, 0.1, worse},
		{"20% longer set-up", scale(base, 1.2), false, 0.1, worse},
		{"5% slower within the bound", scale(base, 0.95), true, 0.1, unchanged},
		{"20% faster", scale(base, 1.2), true, 0.1, improved},
		{"20% slower, no bound", scale(base, 0.8), true, 0, worse},
		{"noisy head", []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, true, 0.1, unresolved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := judge(base, tc.head, tc.higherBetter, tc.bound).verdict; got != tc.want {
				t.Errorf("verdict %s, want %s", got, tc.want)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

// TestCompareFiles runs compare over two files of benchmark output judged
// by the real BENCHMARK.json: slowing one end-to-end metric by more than its
// bound (20%, or twice the bound when that is 0.1 or more) fails it, and
// identical inputs pass.
func TestCompareFiles(t *testing.T) {
	benchPath := filepath.Join("..", "BENCHMARK.json")
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	slowed := spec.EndToEnd[0]
	slowdown := 1 + max(0.2, 2*slowed.Bound)
	write := func(name string, slow float64) string {
		var buf bytes.Buffer
		vals := runs(10, 50)
		for i := range vals {
			res := &result{Workload: "w", Seed: int64(i + 1), Host: fingerprint(), Correct: true, Attempted: 3, Metrics: map[string]metric{}}
			for _, m := range spec.EndToEnd {
				v := vals[i]
				if m.Name == slowed.Name {
					if m.Better == "higher" {
						v /= slow
					} else {
						v *= slow
					}
				}
				res.set(m.Name, v, m.Unit)
			}
			if err := printResult(&buf, res); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base", 1), write("same", 1), write("slow", slowdown)

	var out bytes.Buffer
	if err := compareMain([]string{"-bench", benchPath, base, same}, &out); err != nil {
		t.Fatalf("identical inputs: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), worse) {
		t.Fatalf("identical inputs judged worse:\n%s", out.String())
	}
	out.Reset()
	if err := compareMain([]string{"-bench", benchPath, base, slow}, &out); err == nil {
		t.Fatalf("slowing %s by %.0f%% passed:\n%s", slowed.Name, 100*(slowdown-1), out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " "+slowed.Name+" ") && !strings.HasSuffix(line, worse) {
			t.Errorf("slowed metric not judged worse: %s", line)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a, b := result{Host: fingerprint()}, result{Host: fingerprint()}
	b.Host.NProc++
	if err := oneMachine([]result{a, b}); err == nil {
		t.Fatal("results from two hosts compared")
	}
	b.Host = a.Host
	b.Host.Revision = "other"
	if err := oneMachine([]result{a, b}); err != nil {
		t.Fatalf("two revisions on one host refused: %v", err)
	}
}
