package netstack

import (
	"reflect"
	"testing"

	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/mobility"
)

// TestSweepModeInvariantUnderChurnAndFaults is the world-level half of the
// sweep's pure-prefetch contract: the same churn scenario — joins, leaves,
// beacons, flows, plus mid-run crash/recover faults — must produce a
// byte-identical run (full metrics summary AND state digest) at Shards=1
// and Shards=4. The demand rule (demand×shards ≥ actives) picks the lazy
// and sweep builders differently at each shard count, so the two runs
// build their neighborhoods along different paths; nothing observable may
// differ. Per-neighborhood lazy-vs-sweep equality is pinned in package
// radio (TestRebuildSweepMatchesLazy, TestSweepPropertyRandomChurn).
func TestSweepModeInvariantUnderChurnAndFaults(t *testing.T) {
	run := func(shards int) (metrics.Summary, uint64) {
		t.Helper()
		const n = 10
		w := NewWorld(Config{Seed: 7, Shards: shards}, mobility.NewPlayback(staggeredTracks(n)))
		w.SetJoinFactory(newChurnRouter)
		initial := w.AddVehicleNodes(newChurnRouter)
		w.AddFlow(initial[0], initial[0]+1, 5, 2.0, 12, 256)
		w.AddVehicleFlow(3, 6, 1, 1.0, 30, 128)
		// Tracks join staggered (track i on [2i, 2i+20]); joined nodes get
		// sequential IDs, so initial[0]+k is track k's node once it joins.
		w.Engine().At(8, func() { w.CrashNode(initial[0] + 2) })
		w.Engine().At(14, func() { w.RecoverNode(initial[0] + 2) })
		w.Engine().At(20, func() { w.CrashNode(initial[0] + 5) })
		if err := w.Run(40.5); err != nil {
			t.Fatal(err)
		}
		return w.Collector().Summarize("sweep-mode-test", "staggered"), w.Digest()
	}
	wantSum, wantDig := run(1)
	gotSum, gotDig := run(4)
	if !reflect.DeepEqual(gotSum, wantSum) {
		t.Fatalf("shards=4 summary diverged from sequential:\ngot  %+v\nwant %+v", gotSum, wantSum)
	}
	if gotDig != wantDig {
		t.Fatalf("shards=4 digest %x, want %x", gotDig, wantDig)
	}
}
