// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator, checks that every run of it ends in the same
// state, and prints its metrics. See README.md in this directory.
//
//	perfbench --workload highway-beacon --seed 1 --seconds 15 --trace 0
//	perfbench compare base.txt head.txt
//
// The last line of a run's output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it, prefixed
// "result ", is the full record (host fingerprint included) that compare
// reads back.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's worlds are derived from")
	seconds := fs.Float64("seconds", 20, "wall seconds of timed reps (at least three reps run)")
	trace := fs.Int("trace", 0, "1 adds a traced rep and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := lookup(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(names, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, false)
	if err != nil {
		return err
	}
	return printResult(out, res)
}

func printResult(out io.Writer, res *result) error {
	h := res.Host
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%v\n", res.Workload, res.Seed, res.Trace)
	fmt.Fprintf(out, "host cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s dirty=%v\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Revision, h.Dirty)
	fmt.Fprintf(out, "ops=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintln(out, "problem:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	record, err := json.Marshal(res)
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "result %s\n%s\n", record, last)
	return nil
}
