package linkstate

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
)

// BenchmarkMonitorBeacon is the beacon reception path on a dense highway
// node: one Update per op against a table of about 100 neighbors, with a
// 0.1 s expiry tick every ten beacons. The table starts full, so short
// fixed-count runs measure the steady state. The neighborhood slides by
// one ID every 2000 beacons, so the table keeps inserting newcomers and
// expiring the neighbors left behind.
func BenchmarkMonitorBeacon(b *testing.B) {
	const nbrs = 100
	m := NewMonitor(2.5, 250, nil)
	for id := NodeID(0); id < nbrs; id++ {
		m.Update(id, Vehicle, geom.V(float64(id)*10, 0), geom.V(25, 0), -70, 0)
	}
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.01 // 100 beacons per sim-second: each neighbor at 1 Hz
		base := i / 2000
		id := NodeID(base + (i*37)%nbrs)
		m.Update(id, Vehicle, geom.V(float64(id)*10, 0), geom.V(25, 0), -70, now)
		if i%10 == 9 {
			m.Expire(now)
		}
	}
}

// BenchmarkMonitorExpire is one expiry sweep per op over 100 entries of
// which 3 are stale. Each op first re-inserts the 3 stale neighbors, so
// the cost includes their insertion and the returned slice.
func BenchmarkMonitorExpire(b *testing.B) {
	const nbrs, stale = 100, 3
	m := NewMonitor(2.5, 250, nil)
	now := 10.0
	for id := NodeID(stale); id < nbrs; id++ {
		m.Update(id*3, Vehicle, geom.V(float64(id)*10, 0), geom.V(25, 0), -70, now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := NodeID(0); id < stale; id++ {
			m.Update(id*3, Vehicle, geom.V(float64(id)*10, 0), geom.V(25, 0), -70, now-3)
		}
		if gone := m.Expire(now); len(gone) != stale {
			b.Fatalf("expired %d entries, want %d", len(gone), stale)
		}
	}
}
