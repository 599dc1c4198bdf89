package main

import (
	"github.com/vanetlab/relroute"
	"github.com/vanetlab/relroute/internal/scenario"
)

// world is one simulation a workload runs: a protocol on an option set.
// Options.Scenario always names a preset with a traced twin (see trace.go).
type world struct {
	protocol string
	opts     scenario.Options
}

// workload is one named input of the benchmark: a fixed set of worlds
// derived from the seed. Runs are batch jobs, so a workload's throughput is
// simulated seconds completed per wall second.
type workload struct {
	name string
	// batch, when positive, runs the set through relroute.RunBatch on
	// batchWorkers workers, batch worlds per call, and the set's
	// throughput is the median over the calls; otherwise the benchmark
	// builds and advances each world itself, one after another, and the
	// throughput is over the whole set.
	batch int
	// worlds returns the set for a seed. small shrinks every world to a
	// few vehicles and seconds for the self-tests.
	worlds func(seed int64, small bool) []world
}

// batchWorkers is the campaign's worker count: the two cores of the
// reference host.
const batchWorkers = 2

var workloads = []workload{
	// Flooding sends no beacons, so IDM and lane change dominate and prob
	// is idle: the workload a mobility change must move and a prob or
	// linkstate change must leave alone.
	{
		name: "highway-mobility",
		worlds: func(seed int64, small bool) []world {
			o := scenario.Options{
				Scenario: "highway", Vehicles: 5000, HighwayLength: 50000, LanesPerDirection: 2,
				Flows: 2, FlowPackets: 5, Shards: 2, Duration: 12,
			}
			if small {
				o.Vehicles, o.HighwayLength, o.Duration = 100, 1000, 8
			}
			return replicas("Flooding", o, seed, 10)
		},
	},
	// Every node beacons at 1 Hz: beacon bookkeeping loads linkstate and
	// the MAC, and the event queue holds about 2000 live timers.
	{
		name: "highway-beacon",
		worlds: func(seed int64, small bool) []world {
			o := scenario.Options{
				Scenario: "highway", Vehicles: 2000, HighwayLength: 20000, LanesPerDirection: 2,
				Flows: 10, FlowPackets: 40, Shards: 2, Duration: 12,
			}
			if small {
				o.Vehicles, o.HighwayLength, o.Duration = 80, 800, 8
			}
			return replicas("Greedy", o, seed, 3)
		},
	},
	// The paper's protocol on the serial engine in an open world with
	// joins and leaves: ticket probes make prob the largest layer.
	{
		name: "city-tbpss",
		worlds: func(seed int64, small bool) []world {
			o := scenario.Options{
				Scenario: "city-rush", Vehicles: 300, Flows: 20, FlowPackets: 60, Duration: 8,
			}
			if small {
				o.Vehicles, o.Flows, o.FlowPackets, o.Duration = 30, 3, 10, 8
			}
			return replicas("TBP-SS", o, seed, 20)
		},
	},
	// The only workload that exercises the runner, per-run set-up, the
	// other routers, the fault plane and small event queues.
	{
		name:  "paper-campaign",
		batch: 2 * len(relroute.Protocols()), // one seed
		worlds: func(seed int64, small bool) []world {
			var out []world
			for s := campaignSeeds * (seed - 1); s < campaignSeeds*seed; s++ {
				for _, faults := range []string{"", "rolling-crashes"} {
					for _, p := range relroute.Protocols() {
						o := scenario.Options{Scenario: "highway", Seed: s + 1, Faults: faults, Duration: 10}
						if p == "Bus" {
							o.Buses = 2 // the ferry protocol needs buses, as in vanetbench sweep
						}
						if small {
							o.Vehicles, o.Duration = 20, 8
						}
						out = append(out, world{protocol: p, opts: o})
					}
				}
			}
			return out
		},
	},
}

// campaignSeeds is the campaign's replication count per protocol and fault
// profile, each seed one RunBatch call. The ticket-probing protocols
// dominate its cost, and on some seeds' roads all of them cost several
// times their usual (seed 256: 10.5 s of CPU against 7.3 s for seed 241's
// whole campaign of eight seeds), so the throughput is the median over
// the calls.
const campaignSeeds = 8

// replicas returns k copies of a world with seeds seed*k .. seed*k+k-1, so
// the sets of two different seeds never share a world. Pooling k worlds
// keeps the seed-to-seed spread of the set's figures small.
func replicas(protocol string, o scenario.Options, seed int64, k int) []world {
	out := make([]world, k)
	for i := range out {
		o.Seed = seed*int64(k) + int64(i)
		out[i] = world{protocol: protocol, opts: o}
	}
	return out
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
