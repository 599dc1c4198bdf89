package linkstate

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
)

// Steady-state allocation pins: the epoch-memoized lifetime cache sits on
// every routing decision's hot path, so once the monitor's entries exist,
// neither same-epoch queries nor post-epoch recomputation may allocate.

func warmMonitor() *Monitor {
	m := NewMonitor(2.5, 250, nil)
	for id := NodeID(0); id < 32; id++ {
		m.Update(id, Vehicle, geom.V(float64(id)*20, 0), geom.V(5, 0), -60, 0)
	}
	// materialize every memo once
	obs := Observer{Pos: geom.V(300, 10), Vel: geom.V(-5, 0), Now: 0.5, Epoch: 1}
	for id := NodeID(0); id < 32; id++ {
		m.State(id, obs)
	}
	return m
}

func TestStateAllocFree(t *testing.T) {
	m := warmMonitor()
	obs := Observer{Pos: geom.V(300, 10), Vel: geom.V(-5, 0), Now: 0.7, Epoch: 1}
	allocs := testing.AllocsPerRun(200, func() {
		for id := NodeID(0); id < 32; id++ {
			m.State(id, obs)
		}
	})
	if allocs != 0 {
		t.Fatalf("same-epoch State allocated %v times per run, want 0", allocs)
	}
}

func TestEpochRecomputeAllocFree(t *testing.T) {
	m := warmMonitor()
	obs := Observer{Pos: geom.V(300, 10), Vel: geom.V(-5, 0), Now: 0.7, Epoch: 1}
	allocs := testing.AllocsPerRun(100, func() {
		obs.Epoch++ // every pass invalidates all 32 memos
		obs.Pos.X -= 0.5
		for id := NodeID(0); id < 32; id++ {
			m.State(id, obs)
		}
	})
	if allocs != 0 {
		t.Fatalf("post-epoch recompute allocated %v times per run, want 0", allocs)
	}
}

func TestFeedbackAllocFree(t *testing.T) {
	m := warmMonitor()
	allocs := testing.AllocsPerRun(200, func() {
		for id := NodeID(0); id < 32; id++ {
			m.RecordReceived(id)
			m.RecordSendFailed(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("feedback recording allocated %v times per run, want 0", allocs)
	}
}

// The beacon hot path: refreshing a link the table already holds is a
// binary search and field writes, with no allocation.
func TestUpdateKnownAllocFree(t *testing.T) {
	m := warmMonitor()
	now := 1.0
	allocs := testing.AllocsPerRun(200, func() {
		now += 0.01
		for id := NodeID(0); id < 32; id++ {
			m.Update(id, Vehicle, geom.V(float64(id)*20, 0), geom.V(5, 0), -61, now)
		}
	})
	if allocs != 0 {
		t.Fatalf("known-ID Update allocated %v times per run, want 0", allocs)
	}
}

// A full expiry sweep that finds nothing stale compacts in place and
// returns nil: no allocation.
func TestExpireNothingStaleAllocFree(t *testing.T) {
	m := warmMonitor()
	now := 0.0
	sweeps := m.FullSweeps()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		// refresh everything 3 s later: the oldest-entry bound is left
		// stale-low, so the sweep really walks the table
		now += 3
		for id := NodeID(0); id < 32; id++ {
			m.Update(id, Vehicle, geom.V(float64(id)*20, 0), geom.V(5, 0), -61, now)
		}
		if gone := m.Expire(now); gone != nil {
			t.Fatalf("fresh table expired %v", gone)
		}
	})
	if allocs != 0 {
		t.Fatalf("Expire with nothing stale allocated %v times per run, want 0", allocs)
	}
	if got := m.FullSweeps() - sweeps; got < runs {
		t.Fatalf("%d full sweeps in %d runs: the bound short-circuited the sweep", got, runs)
	}
}

// Snapshot allocates only the slice it returns.
func TestSnapshotAllocsOnce(t *testing.T) {
	m := warmMonitor()
	allocs := testing.AllocsPerRun(200, func() {
		if len(m.Snapshot()) != 32 {
			t.Fatal("snapshot lost entries")
		}
	})
	if allocs != 1 {
		t.Fatalf("Snapshot allocated %v times per run, want 1", allocs)
	}
}
