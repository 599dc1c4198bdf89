package relroute_test

// Golden-output tests pinning the simulator's observable behaviour across
// the allocation-free core rewrite: every experiment table must be
// byte-identical to the output captured from the pre-optimization engine
// (commit "Capture pre-optimization golden experiment outputs"), at both
// one worker and eight. Pooling, arena-backed event slots, pre-bound MAC
// callbacks, and slice-backed indices must not change a single draw of any
// random stream or the order of any event — these files prove it.
//
// To regenerate after an INTENTIONAL behaviour change (never for a pure
// optimization), run:
//
//	go test -run TestGoldenOutputs -update-golden
//
// and explain the diff in the commit message.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vanetlab/relroute"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden experiment outputs")

func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiments are full simulations; skipped in -short")
	}
	for _, id := range []string{"fig2", "abl-storm", "table1", "abl-disaster", "chaos"} {
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("%s/w%d", id, workers)
			t.Run(name, func(t *testing.T) {
				tab, err := relroute.RunExperiment(id, relroute.ExperimentConfig{
					Seed: 1, Quick: true, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := tab.String()
				path := filepath.Join("testdata", fmt.Sprintf("golden_%s_w%d.txt", id, workers))
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
				}
				if got != string(want) {
					t.Fatalf("experiment %s output diverged from the golden capture.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
				}
			})
		}
	}
}

// TestProtocolGoldens pins every router, not just the ones the paper
// experiments happen to exercise: all protocols × {highway at 40
// vehicles, city-rush at 120} × {no faults, rolling-crashes}, seed 3,
// 30 s. Each line records the packet counters (DataDropped included,
// which Summary lacks), the route-maintenance counters, the executed-event
// count and the final world digest. Shards=1 and Shards=4 must both match
// the one file. Regenerate with
//
//	go test -run TestProtocolGoldens -update-golden
func TestProtocolGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden protocol matrix is full simulations; skipped in -short")
	}
	path := filepath.Join("testdata", "golden_protocols.txt")
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			got := protocolMatrix(t, shards)
			if *updateGolden {
				if shards == 1 {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("protocol matrix at Shards=%d diverged from the golden capture.\n--- got ---\n%s\n--- want ---\n%s", shards, got, want)
			}
		})
	}
}

// protocolMatrix runs the TestProtocolGoldens matrix at one shard count
// and renders one line per run.
func protocolMatrix(t *testing.T, shards int) string {
	t.Helper()
	worlds := []struct {
		name     string
		scenario string
		vehicles int
	}{
		{"highway", "", 40},
		{"city-rush", "city-rush", 120},
	}
	var b strings.Builder
	for _, proto := range relroute.Protocols() {
		for _, w := range worlds {
			for _, fault := range []string{"", "rolling-crashes"} {
				opts := relroute.Options{
					Seed: 3, Scenario: w.scenario, Vehicles: w.vehicles,
					Duration: 30, Faults: fault, Shards: shards,
				}
				if proto == "Bus" {
					opts.Buses = 2
				}
				sc, err := relroute.BuildScenario(proto, opts)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := sc.Run()
				if err != nil {
					t.Fatal(err)
				}
				label := fault
				if label == "" {
					label = "none"
				}
				fmt.Fprintf(&b, "%-9s %-9s %-15s sent=%d delivered=%d dropped=%d discoveries=%d repairs=%d breaks=%d events=%d digest=%016x\n",
					proto, w.name, label, sum.DataSent, sum.DataDelivered,
					sc.World.Collector().DataDropped, sum.Discoveries, sum.Repairs,
					sum.Breaks, sum.Events, sc.World.Digest())
			}
		}
	}
	return b.String()
}
