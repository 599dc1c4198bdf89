package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"github.com/vanetlab/relroute"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/scenario"
)

// tickS is the world's mobility tick (netstack.Config.Tick's default): the
// traced run advances the world one tick per AdvanceTo call.
const tickS = 0.1

// setupSamples is how many times a run builds the whole set to time it;
// minReps is the fewest timed reps a run makes, so that every world is
// compared with itself and the median has a middle.
const (
	setupSamples = 9
	minReps      = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one benchmark run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems explains every failed op and failed check.
	Problems []string `json:"problems,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// rep is one execution of a workload's whole world set.
type rep struct {
	runWall    float64 // wall seconds of the run phase (batches' makespans)
	simS       float64 // simulated seconds, summed over worlds
	throughput float64 // simulated seconds per wall second, see workload.batch
	allocB     uint64  // bytes allocated during the run phase
	heapB      float64 // live heap per world after its run, see liveHeap
	sums       []metrics.Summary
	ident      []string // per world: final digest and summary
	tally      tally
}

// tally sums what the per-layer metrics count over a set's worlds.
type tally struct {
	events, builds                                  uint64
	transmits, deliveries, collisions, losses       int
	sent, delivered, forwarded, dropped, control    int
	discoveries, breaks, joins, leaves, crash, recv int
	// from traced models: time inside them, vehicles in their snapshots,
	// and the intervals between consecutive snapshots (ms)
	mobilityNs, vehicleSteps int64
	seamTicks                []float64
	untraced                 int // worlds whose model is not traced
}

// measure runs one workload: set-up timing, timed reps for at least
// seconds, and with trace one traced rep that supplies the per-layer
// figures. An error means the run could not start; a failed op or check
// is reported in the result instead.
func measure(w workload, seed int64, seconds float64, trace, small bool) (*result, error) {
	set := w.worlds(seed, small)
	res := &result{Workload: w.name, Seed: seed, Trace: trace, Host: fingerprint(), Metrics: map[string]metric{}}

	setups := make([]float64, setupSamples)
	for i := range setups {
		s, err := buildSet(set)
		if err != nil {
			return nil, err
		}
		setups[i] = s
	}

	var reps []*rep
	var ref []string
	check := func(r *rep, err error, what string) bool {
		res.Attempted++
		if err == nil && ref != nil {
			err = sameIdent(ref, r.ident)
		}
		if err != nil {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %v", what, err))
			return false
		}
		if ref == nil {
			ref = r.ident
			res.Problems = append(res.Problems, sanity(r.sums)...)
		}
		return true
	}
	// Reps continue while the next one, judged by the last, still ends
	// within the requested seconds.
	start := time.Now()
	var last float64
	for res.Attempted < minReps || time.Since(start).Seconds()+last <= seconds {
		t := time.Now()
		r, err := runSet(set, w.batch)
		last = time.Since(t).Seconds()
		if check(r, err, fmt.Sprintf("rep %d", res.Attempted+1)) {
			reps = append(reps, r)
		}
	}

	res.set("setup_s", median(setups), "s")
	res.set("sim_s_per_wall_s", medianOf(reps, func(r *rep) float64 { return r.throughput }), "sim-s/s")
	res.set("alloc_mb_per_sim_s", medianOf(reps, func(r *rep) float64 { return float64(r.allocB) / 1e6 / r.simS }), "MB/sim-s")
	res.set("live_heap_mb", medianOf(reps, func(r *rep) float64 { return r.heapB / 1e6 }), "MB")

	if trace {
		t, err := runTraced(set, w.batch)
		check(t.rep, err, "traced rep")
		res.Metrics = map[string]metric{}
		if err == nil {
			t.report(res, medianOf(reps, func(r *rep) float64 { return r.runWall }))
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// buildSet builds every world of the set once, unrun, and returns the
// wall seconds that took.
func buildSet(set []world) (float64, error) {
	var total time.Duration
	for _, wd := range set {
		t := time.Now()
		_, err := relroute.BuildScenario(wd.protocol, wd.opts)
		total += time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("build %s seed %d: %w", wd.protocol, wd.opts.Seed, err)
		}
	}
	return total.Seconds(), nil
}

// runSet executes the set once, untraced.
func runSet(set []world, batch int) (*rep, error) {
	if batch > 0 {
		return runBatch(set, batch, false)
	}
	r, _, err := runEach(set, false)
	return r, err
}

// runEach builds and runs the set's worlds one after another. With
// traced, every world comes from its preset's traced twin and is advanced
// one mobility tick per AdvanceTo call; the returned ticks are those
// calls' wall times in ms.
func runEach(set []world, traced bool) (*rep, []float64, error) {
	r := &rep{}
	var ticks []float64
	var m0, m1 runtime.MemStats
	for _, wd := range set {
		o := wd.opts
		if traced {
			o.Scenario = tracedPrefix + o.Scenario
		}
		sc, err := relroute.BuildScenario(wd.protocol, o)
		if err != nil {
			return r, ticks, err
		}
		runtime.ReadMemStats(&m0)
		t := time.Now()
		var sum metrics.Summary
		if traced {
			ticks, err = advance(sc, ticks)
			sum = sc.Summary()
		} else {
			sum, err = sc.Run()
		}
		r.runWall += time.Since(t).Seconds()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return r, ticks, err
		}
		r.allocB += m1.TotalAlloc - m0.TotalAlloc
		r.add(sc, sum)
		r.heapB += liveHeap(sc) / float64(len(set))
	}
	r.throughput = r.simS / r.runWall
	return r, ticks, nil
}

// advance is World.Run split at every mobility tick, which executes the
// identical event sequence. It appends each tick's wall time in ms.
func advance(sc *scenario.Scenario, ticks []float64) ([]float64, error) {
	w := sc.World
	w.StartRun()
	defer w.EndRun()
	d := sc.Opts.Duration
	for k := 1; ; k++ {
		at := math.Min(float64(k)*tickS, d)
		start := time.Now()
		if err := w.AdvanceTo(at); err != nil {
			return ticks, err
		}
		ticks = append(ticks, float64(time.Since(start))/1e6)
		if at >= d {
			break
		}
	}
	w.CompleteRun()
	return ticks, nil
}

// runBatch executes the set through relroute.RunBatch, size worlds per
// call, building every world from Options (from the traced twin of its
// preset with traced). The Setup hook keeps each built world so its
// digest and counters stay readable after the call.
func runBatch(set []world, size int, traced bool) (*rep, error) {
	r := &rep{}
	var parts []float64
	var m0, m1 runtime.MemStats
	for start := 0; start < len(set); start += size {
		part := set[start:min(start+size, len(set))]
		var c relroute.Campaign
		scs := make([]*relroute.Scenario, len(part))
		for i, wd := range part {
			o := wd.opts
			if traced {
				o.Scenario = tracedPrefix + o.Scenario
			}
			c.Add(relroute.BatchRun{Protocol: wd.protocol, Opts: o, Setup: func(sc *relroute.Scenario) { scs[i] = sc }})
		}
		runtime.ReadMemStats(&m0)
		t := time.Now()
		results := relroute.RunBatch(c, batchWorkers)
		wall := time.Since(t).Seconds()
		runtime.ReadMemStats(&m1)
		r.runWall += wall
		r.allocB += m1.TotalAlloc - m0.TotalAlloc
		simS := r.simS
		for i, br := range results {
			if br.Err != nil {
				return r, br.Err
			}
			r.add(scs[i], br.Summary)
		}
		parts = append(parts, (r.simS-simS)/wall)
		r.heapB += liveHeap(scs) / float64(len(set))
	}
	r.throughput = median(parts)
	return r, nil
}

func (r *rep) add(sc *scenario.Scenario, sum metrics.Summary) {
	r.simS += sc.Opts.Duration
	r.sums = append(r.sums, sum)
	r.ident = append(r.ident, fmt.Sprintf("%016x %+v", sc.World.Digest(), sum))
	r.tally.add(sc)
}

func (c *tally) add(sc *scenario.Scenario) {
	col := sc.World.Collector()
	c.events += sc.World.Engine().EventCount()
	c.builds += sc.World.Radio().Builds()
	c.transmits += col.MACTransmits
	c.deliveries += col.MACDelivered
	c.collisions += col.MACCollisions
	c.losses += col.MACChannelLoss
	c.sent += col.DataSent
	c.delivered += col.DataDelivered
	c.forwarded += col.DataForwarded
	c.dropped += col.DataDropped
	c.control += col.ControlTotal()
	c.discoveries += col.RouteDiscoveries
	c.breaks += col.RouteBreaks
	c.joins += col.NodeJoins
	c.leaves += col.NodeLeaves
	c.crash += col.FaultCrashes
	c.recv += col.FaultRecoveries
	tm, ok := sc.Model.(*tracedModel)
	if !ok {
		c.untraced++
		return
	}
	c.mobilityNs += tm.callNs
	c.vehicleSteps += tm.vehicleSteps
	c.seamTicks = append(c.seamTicks, tm.ticks...)
}

// liveHeap is the heap in use after a forced GC with the given worlds
// still reachable, in bytes.
func liveHeap(worlds any) float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(worlds)
	return float64(m.HeapAlloc)
}

func sameIdent(ref, got []string) error {
	if len(ref) != len(got) {
		return fmt.Errorf("%d worlds finished, want %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			return fmt.Errorf("world %d ended as %.60s..., want %.60s...", i, got[i], ref[i])
		}
	}
	return nil
}

// sanity checks what must hold for any run of a workload. A single world
// of an open set may send nothing (its flow endpoints can all be absent),
// so traffic is checked over the set.
func sanity(sums []metrics.Summary) []string {
	var out []string
	sent := 0
	for i, s := range sums {
		sent += s.DataSent
		if s.Events <= 0 {
			out = append(out, fmt.Sprintf("world %d executed no events", i))
		}
		if s.DataDelivered > s.DataSent {
			out = append(out, fmt.Sprintf("world %d delivered %d of %d packets", i, s.DataDelivered, s.DataSent))
		}
	}
	if sent == 0 {
		out = append(out, "no world sent data")
	}
	return out
}

// traced is the traced rep and what its spans and profile recorded.
type traced struct {
	*rep
	ticks        []float64 // tick spans, ms
	layerSamples map[string]int64
	samples      int64
	cpuS, wallS  float64
	gcCycles     uint32
	mallocs      uint64
}

// runTraced executes the set once more with every world built from its
// preset's traced twin, under the CPU profiler. The campaign's worlds are
// driven by the runner, not the benchmark, so their tick spans are the
// intervals between consecutive mobility snapshots.
func runTraced(set []world, batch int) (*traced, error) {
	t := &traced{rep: &rep{}}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return t, fmt.Errorf("cpu profile: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, wall0 := cpuSeconds(), time.Now()
	var err error
	if batch > 0 {
		t.rep, err = runBatch(set, batch, true)
		t.ticks = t.tally.seamTicks
	} else {
		t.rep, t.ticks, err = runEach(set, true)
	}
	t.wallS = time.Since(wall0).Seconds()
	t.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	if err != nil {
		return t, err
	}
	if t.tally.untraced > 0 {
		return t, fmt.Errorf("%d worlds built without the traced mobility model", t.tally.untraced)
	}
	t.gcCycles = m1.NumGC - m0.NumGC
	t.mallocs = m1.Mallocs - m0.Mallocs
	t.layerSamples, t.samples, err = foldProfile(buf.Bytes())
	return t, err
}

// report fills res with the per-layer figures. untracedWall is the median
// run-phase wall time of the timed reps.
func (t *traced) report(res *result, untracedWall float64) {
	c := &t.tally
	for _, l := range layers {
		res.set(l+".self_share", ratio(float64(t.layerSamples[l]), float64(t.samples)), "share")
	}
	res.set("profile.samples", float64(t.samples), "count")

	sort.Float64s(t.ticks)
	res.set("tick_ms.p50", quantile(t.ticks, 0.5), "ms")
	res.set("tick_ms.p90", quantile(t.ticks, 0.9), "ms")
	res.set("tick_ms.samples", float64(len(t.ticks)), "count")
	var tickMs float64
	for _, ms := range t.ticks {
		tickMs += ms
	}
	res.set("mobility.call_share", ratio(float64(c.mobilityNs)/1e6, tickMs), "share")
	res.set("mobility.ns_per_vehicle_step", ratio(float64(c.mobilityNs), float64(c.vehicleSteps)), "ns")
	res.set("sim.events", float64(c.events), "count")
	res.set("sim.events_per_s", ratio(float64(c.events), t.runWall), "1/s")
	res.set("mac.transmits", float64(c.transmits), "count")
	res.set("mac.deliveries", float64(c.deliveries), "count")
	res.set("mac.collisions", float64(c.collisions), "count")
	res.set("mac.channel_losses", float64(c.losses), "count")
	res.set("mac.delivery_ratio", ratio(float64(c.deliveries), float64(c.deliveries+c.collisions+c.losses)), "ratio")
	res.set("radio.builds", float64(c.builds), "count")
	res.set("radio.builds_per_transmit", ratio(float64(c.builds), float64(c.transmits)), "ratio")
	res.set("routing.data_sent", float64(c.sent), "count")
	res.set("routing.data_delivered", float64(c.delivered), "count")
	res.set("routing.pdr", ratio(float64(c.delivered), float64(c.sent)), "ratio")
	res.set("routing.data_forwarded", float64(c.forwarded), "count")
	res.set("routing.data_dropped", float64(c.dropped), "count")
	res.set("routing.unaccounted", float64(c.sent-c.delivered-c.dropped), "count")
	res.set("routing.control_tx", float64(c.control), "count")
	res.set("routing.discoveries", float64(c.discoveries), "count")
	res.set("routing.breaks", float64(c.breaks), "count")
	res.set("routing.control_per_delivered", ratio(float64(c.control), float64(c.delivered)), "ratio")
	res.set("netstack.joins", float64(c.joins), "count")
	res.set("netstack.leaves", float64(c.leaves), "count")
	res.set("faults.crashes", float64(c.crash), "count")
	res.set("faults.recoveries", float64(c.recv), "count")
	res.set("gc.cycles", float64(t.gcCycles), "count")
	res.set("mem.mallocs", float64(t.mallocs), "count")
	res.set("process.cpu_per_wall", ratio(t.cpuS, t.wallS), "ratio")
	res.set("trace.overhead", ratio(t.runWall, untracedWall), "ratio")
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOf(reps []*rep, f func(*rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
