package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/vanetlab/relroute
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScaleVehicles/200-8         	       5	  72451549 ns/op	16805897 B/op	  184829 allocs/op
BenchmarkEngine-8                    	       5	     41467 ns/op	   24009 B/op	     500 allocs/op
BenchmarkProtocolHighway/Greedy-8    	       1	  12345678 ns/op	         0.82 PDR
PASS
ok  	github.com/vanetlab/relroute	1.298s
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("environment not captured: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "ScaleVehicles/200" {
		t.Fatalf("name = %q (GOMAXPROCS suffix should be stripped)", b.Name)
	}
	if b.Iterations != 5 || b.NsPerOp != 72451549 || b.BytesPerOp != 16805897 || b.AllocsPerOp != 184829 {
		t.Fatalf("values not parsed: %+v", b)
	}
	if got := rep.Benchmarks[2].Metrics["PDR"]; got != 0.82 {
		t.Fatalf("custom metric PDR = %v, want 0.82", got)
	}
}

// multiPkg is a two-package run, as `go test -bench . ./a ./b` prints it.
const multiPkg = `goos: linux
goarch: amd64
pkg: github.com/vanetlab/relroute/internal/eventq
BenchmarkSchedulePop-2   	     100	        71.35 ns/op
pkg: github.com/vanetlab/relroute/internal/radio
BenchmarkLinksHit-2      	     100	         9.10 ns/op
BenchmarkRebuildSweep-2  	     100	     91234 ns/op
PASS
`

func TestParseMultiPackage(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(multiPkg)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"SchedulePop":  "github.com/vanetlab/relroute/internal/eventq",
		"LinksHit":     "github.com/vanetlab/relroute/internal/radio",
		"RebuildSweep": "github.com/vanetlab/relroute/internal/radio",
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for _, r := range rep.Benchmarks {
		if r.Pkg != want[r.Name] {
			t.Errorf("%s: pkg %q, want %q", r.Name, r.Pkg, want[r.Name])
		}
	}
	if rep.Pkg != "" {
		t.Errorf("multi-package report pkg = %q, want empty", rep.Pkg)
	}

	single, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if single.Pkg != "github.com/vanetlab/relroute" || single.Benchmarks[0].Pkg != single.Pkg {
		t.Errorf("single-package run: report pkg %q, row pkg %q", single.Pkg, single.Benchmarks[0].Pkg)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkBroken\nnonsense line\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage, want 0", len(rep.Benchmarks))
	}
}

func writeReport(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", &Report{Benchmarks: []Result{
		{Name: "ScaleVehicles/200", NsPerOp: 100},
		{Name: "Engine", NsPerOp: 50},
		{Name: "Retired", NsPerOp: 10},
	}})
	within := writeReport(t, dir, "within.json", &Report{Benchmarks: []Result{
		{Name: "ScaleVehicles/200", NsPerOp: 110},  // +10%: inside the gate
		{Name: "Engine", NsPerOp: 40},              // improvement
		{Name: "ScaleVehicles/1000", NsPerOp: 999}, // new point, no baseline
	}})
	regressed, err := runCompare(old, within, 0.15, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatal("+10% flagged as regression at threshold 0.15")
	}

	bad := writeReport(t, dir, "bad.json", &Report{Benchmarks: []Result{
		{Name: "ScaleVehicles/200", NsPerOp: 120}, // +20%
		{Name: "Engine", NsPerOp: 50},
	}})
	regressed, err = runCompare(old, bad, 0.15, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("+20% not flagged at threshold 0.15")
	}
}

func TestCompareBadFile(t *testing.T) {
	if _, err := runCompare("does-not-exist.json", "also-missing.json", 0.15, io.Discard); err == nil {
		t.Fatal("missing baseline file accepted")
	}
}

func TestParseArgsInterleaved(t *testing.T) {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	compare := fs.Bool("compare", false, "")
	threshold := fs.Float64("threshold", 0.15, "")
	files := parseArgs(fs, []string{"-compare", "old.json", "new.json", "-threshold", "0.3"})
	if !*compare || *threshold != 0.3 {
		t.Fatalf("flags not parsed: compare=%v threshold=%v", *compare, *threshold)
	}
	if len(files) != 2 || files[0] != "old.json" || files[1] != "new.json" {
		t.Fatalf("files = %v", files)
	}
}
