package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare needs: each metric's
// direction and, for end-to-end metrics, the bound by which its median may
// worsen before it counts as a regression.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// The verdicts compare gives a metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// winShare is the share of pairs the head must win for a gain to count.
const winShare = 0.9

// comparison is one metric of one workload, base against head.
type comparison struct {
	base, head [3]float64 // first quartile, median, third quartile
	won        float64    // share of pairs the head won; ties count for neither
	pairs      int
	verdict    string
}

// judge compares a metric's runs. Runs pair up in the order they were
// recorded, so alternate base and head runs when collecting them. A bound
// of 0 means the metric has none: it can then only be called improved or
// worse by the pairs rule, and unchanged otherwise.
func judge(base, head []float64, higherBetter bool, bound float64) comparison {
	c := comparison{base: quartiles(base), head: quartiles(head)}
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	c.pairs = min(len(base), len(head))
	var won, lost int
	for i := 0; i < c.pairs; i++ {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			won++
		case d < 0:
			lost++
		}
	}
	if c.pairs > 0 {
		c.won = float64(won) / float64(c.pairs)
	}
	gain := sign * (c.head[1] - c.base[1])
	spread := c.base[2] - c.base[0]
	// every head run better than every base run
	allBetter := sign*(extreme(head, -sign)-extreme(base, sign)) > 0
	switch {
	case bound > 0 && -gain > bound*math.Abs(c.base[1]):
		c.verdict = worse
	case c.won >= winShare && gain > spread:
		c.verdict = improved
	case bound == 0 && c.pairs > 0 && float64(lost)/float64(c.pairs) >= winShare && -gain > spread:
		c.verdict = worse
	case bound > 0 && (relSpread(c.base) > bound || relSpread(c.head) > bound) && !allBetter:
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

// extreme returns the largest value for dir > 0, the smallest otherwise.
func extreme(v []float64, dir float64) float64 {
	e := v[0]
	for _, x := range v[1:] {
		if dir*(x-e) > 0 {
			e = x
		}
	}
	return e
}

func relSpread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// quartiles returns the first quartile, median and third quartile with the
// exclusive method of Python's statistics.quantiles(v, n=4).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	n, m := 4, len(s)+1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q
}

// compareMain prints, per workload and metric, both sides' medians and
// quartiles, the share of pairs the head won and a verdict. It fails when
// the files come from different machines or an end-to-end metric got
// worse.
func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [-bench BENCHMARK.json] BASE HEAD (files of perfbench output)")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	base, err := readResults(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readResults(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := oneMachine(append(append([]result(nil), base...), head...)); err != nil {
		return err
	}
	regressions := compareResults(out, spec, base, head)
	if regressions > 0 {
		return fmt.Errorf("%d end-to-end metric(s) worse", regressions)
	}
	return nil
}

// compareResults prints the comparison table and returns how many
// end-to-end metrics got worse.
func compareResults(out io.Writer, spec benchSpec, base, head []result) int {
	bySide := func(rs []result) map[string]map[string][]float64 {
		m := map[string]map[string][]float64{}
		for _, r := range rs {
			if m[r.Workload] == nil {
				m[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				m[r.Workload][name] = append(m[r.Workload][name], v.Value)
			}
		}
		return m
	}
	b, h := bySide(base), bySide(head)
	var names []string
	for w := range b {
		if h[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(out, "%-18s %-30s %-30s %-30s %7s %5s %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "won", "verdict")
	for _, w := range names {
		for i, sm := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			bv, hv := b[w][sm.Name], h[w][sm.Name]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			c := judge(bv, hv, sm.Better == "higher", sm.Bound)
			if i < len(spec.EndToEnd) && c.verdict == worse {
				regressions++
			}
			fmt.Fprintf(out, "%-18s %-30s %-30s %-30s %+6.1f%% %4.0f%% %s\n", w, sm.Name,
				fmtQ(c.base), fmtQ(c.head), 100*ratio(c.head[1]-c.base[1], math.Abs(c.base[1])), 100*c.won, c.verdict)
		}
	}
	return regressions
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// readResults collects the "result " records from a file of perfbench
// output.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "result ")
		if !ok {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(rest), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return out, nil
}

// oneMachine refuses results measured on different machines or toolchains.
func oneMachine(rs []result) error {
	for _, r := range rs[1:] {
		if !r.Host.sameMachine(rs[0].Host) {
			return fmt.Errorf("results come from different hosts: %+v and %+v", rs[0].Host, r.Host)
		}
	}
	return nil
}
