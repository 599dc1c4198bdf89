package main

import (
	"math/rand"
	"time"

	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/par"
	"github.com/vanetlab/relroute/internal/roadnet"
	"github.com/vanetlab/relroute/internal/scenario"
)

// tracedPrefix names the traced twin of a registered scenario preset. A
// world built from "traced/<preset>" is the preset with its mobility model
// wrapped in a tracedModel; everything else, the RNG draw order included,
// is the preset's own, so the twin must end with the preset's digest.
const tracedPrefix = "traced/"

// tracedPresets are the presets the workloads use. Their twins are
// registered at start-up so that runs the benchmark does not drive itself
// (the campaign's, which relroute.RunBatch builds from Options) can be
// traced through Options.Scenario alone.
var tracedPresets = []string{"highway", "city-rush"}

func init() {
	for _, name := range tracedPresets {
		def, ok := scenario.Named(name)
		if !ok {
			panic("perfbench: scenario preset " + name + " is not registered")
		}
		scenario.Register(scenario.Definition{
			Name:        tracedPrefix + name,
			Description: def.Description + " (mobility calls timed)",
			Build: func(o scenario.Options) scenario.Spec {
				spec := def.Build(o)
				if spec.Traffic == nil {
					spec.Traffic = scenario.ClosedTraffic{}
				}
				spec.Traffic = tracedTraffic{inner: spec.Traffic}
				return spec
			},
		})
	}
}

// tracedTraffic wraps a traffic source so the mobility model it builds is
// a tracedModel. BuildSpec only recognises a bare *mobility.RoadModel as
// Scenario.Road, so Install restores Road before delegating: open-world
// traffic needs it to spawn and despawn vehicles.
type tracedTraffic struct {
	inner scenario.Traffic
}

func (t tracedTraffic) BuildModel(net *roadnet.Network, segs []roadnet.SegmentID, rng *rand.Rand, opts *scenario.Options) (mobility.Model, error) {
	m, err := t.inner.BuildModel(net, segs, rng, opts)
	if err != nil {
		return nil, err
	}
	road, ok := m.(*mobility.RoadModel)
	if !ok {
		// Only road models have every optional interface the world
		// probes for; wrapping anything else could change the run.
		return m, nil
	}
	return &tracedModel{RoadModel: road}, nil
}

func (t tracedTraffic) Install(sc *scenario.Scenario) {
	if tm, ok := sc.Model.(*tracedModel); ok {
		sc.Road = tm.RoadModel
	}
	t.inner.Install(sc)
}

// tracedModel times every call the world makes into the mobility model.
// Embedding forwards the methods it does not override (Len, States,
// DigestInto, AppendStreamStates), so the world sees the same optional interfaces as
// on the bare model. The world calls it from one goroutine only.
type tracedModel struct {
	*mobility.RoadModel

	callNs       int64 // wall time inside Advance*/States* calls
	vehicleSteps int64 // vehicles in each tick's snapshot, summed
	// ticks are the wall intervals between consecutive snapshots, each
	// one mobility tick of the world; the benchmark uses them for worlds
	// it does not advance itself.
	ticks    []float64
	lastSnap time.Time
}

func (m *tracedModel) Advance(dt float64) {
	t := time.Now()
	m.RoadModel.Advance(dt)
	m.callNs += int64(time.Since(t))
}

func (m *tracedModel) AdvanceShards(dt float64, pool *par.Pool) {
	t := time.Now()
	m.RoadModel.AdvanceShards(dt, pool)
	m.callNs += int64(time.Since(t))
}

// StatesInto and StatesIntoShards are the world's per-tick snapshot; the
// build-time States call stays untimed through the embedded model.
func (m *tracedModel) StatesInto(dst []mobility.State) []mobility.State {
	t := m.snapStart()
	n := len(dst)
	dst = m.RoadModel.StatesInto(dst)
	m.snapEnd(t, len(dst)-n)
	return dst
}

func (m *tracedModel) StatesIntoShards(dst []mobility.State, pool *par.Pool) []mobility.State {
	t := m.snapStart()
	n := len(dst)
	dst = m.RoadModel.StatesIntoShards(dst, pool)
	m.snapEnd(t, len(dst)-n)
	return dst
}

func (m *tracedModel) snapStart() time.Time {
	t := time.Now()
	if !m.lastSnap.IsZero() {
		m.ticks = append(m.ticks, float64(t.Sub(m.lastSnap))/1e6)
	}
	m.lastSnap = t
	return t
}

func (m *tracedModel) snapEnd(start time.Time, vehicles int) {
	m.callNs += int64(time.Since(start))
	m.vehicleSteps += int64(vehicles)
}
