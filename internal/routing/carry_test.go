package routing_test

import (
	"math"
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// carryStub is the smallest store-carry-forward router: a fresh attempt
// carries every packet, and a retry does what the test's verdicts say
// (carry by default). Both record what they were asked about; a packet is
// named by its rank among the fresh attempts.
type carryStub struct {
	routing.Carrier
	next     []*netstack.Packet      // every fresh attempt, in order
	verdicts map[int]routing.Verdict // retry verdict by rank
	to       netstack.NodeID         // next hop of a Forward verdict
	sweeps   []float64               // sim time of every sweep that retried
	retried  [][]int                 // per sweep: rank of each retried packet
	ages     []float64               // carry age at each retry
}

func (r *carryStub) Name() string { return "stub" }

func (r *carryStub) NextHop(pkt *netstack.Packet) (netstack.NodeID, routing.Verdict) {
	r.next = append(r.next, pkt)
	return 0, routing.Carry
}

func (r *carryStub) RetryHop(pkt *netstack.Packet) (netstack.NodeID, routing.Verdict) {
	now := r.API.Now()
	if n := len(r.sweeps); n == 0 || r.sweeps[n-1] != now {
		r.sweeps = append(r.sweeps, now)
		r.retried = append(r.retried, nil)
	}
	last := len(r.retried) - 1
	rank := slices.Index(r.next, pkt)
	r.retried[last] = append(r.retried[last], rank)
	r.ages = append(r.ages, now-pkt.Created)
	return r.to, r.verdicts[rank]
}

// carryWorld builds two stationary neighbors 100 m apart running stub
// carriers with the given timeout.
func carryWorld(t *testing.T, timeout float64) (*netstack.World, []netstack.NodeID, []*carryStub) {
	t.Helper()
	var routers []*carryStub
	factory := func() netstack.Router {
		r := &carryStub{verdicts: make(map[int]routing.Verdict)}
		r.Init(r, timeout)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, routetest.Chain(2, 100, 0), factory)
	for _, r := range routers {
		r.to = ids[1]
	}
	return w, ids, routers
}

// carryAges carries one packet, created at t=1, for 5 s under timeout and
// returns the carry age at each of its retries and the drop count.
func carryAges(t *testing.T, timeout float64) ([]float64, int) {
	t.Helper()
	w, ids, routers := carryWorld(t, timeout)
	w.AddFlow(ids[0], ids[1], 1, 1, 1, 64)
	run(t, w, 6)
	return routers[0].ages, w.Collector().DataDropped
}

func TestCarrierDropsOnlyPastTimeout(t *testing.T) {
	ages, dropped := carryAges(t, 100)
	if len(ages) < 3 || dropped != 0 {
		t.Fatalf("with no effective timeout: %d retries, %d drops", len(ages), dropped)
	}
	// a packet exactly at the timeout is retried once more, then dropped
	at, dropped := carryAges(t, ages[1])
	if !slices.Equal(at, ages[:2]) || dropped != 1 {
		t.Fatalf("timeout = age of 2nd retry: retried at ages %v, %d drops; want %v, 1 drop",
			at, dropped, ages[:2])
	}
	// just below it, the second sweep drops it instead
	at, dropped = carryAges(t, math.Nextafter(ages[1], 0))
	if !slices.Equal(at, ages[:1]) || dropped != 1 {
		t.Fatalf("timeout just below: retried at ages %v, %d drops; want %v, 1 drop",
			at, dropped, ages[:1])
	}
}

func TestCarrierSweepIsJitteredThenPeriodic(t *testing.T) {
	w, ids, routers := carryWorld(t, 100)
	w.AddFlow(ids[0], ids[1], 0.1, 1, 1, 64)
	w.AddFlow(ids[1], ids[0], 0.1, 1, 1, 64)
	run(t, w, 3)
	var firsts []float64
	for i, r := range routers {
		if len(r.sweeps) < 4 {
			t.Fatalf("node %d: %d sweeps by t=3", i, len(r.sweeps))
		}
		first := r.sweeps[0]
		if first < 0.5 || first >= 0.6 {
			t.Fatalf("node %d: first sweep at %v, want in [0.5, 0.6)", i, first)
		}
		for k := 1; k < len(r.sweeps); k++ {
			if gap := r.sweeps[k] - r.sweeps[k-1]; math.Abs(gap-0.5) > 1e-9 {
				t.Fatalf("node %d: sweeps %v not 0.5 s apart", i, r.sweeps)
			}
		}
		firsts = append(firsts, first)
	}
	if firsts[0] == firsts[1] {
		t.Fatalf("both nodes first swept at %v: no jitter", firsts[0])
	}
}

func TestCarrierSweepKeepsSurvivorsInOrder(t *testing.T) {
	w, ids, routers := carryWorld(t, 100)
	src := routers[0]
	// four packets carried before the first sweep, which sends the
	// second and drops the third
	src.verdicts[1] = routing.Forward
	src.verdicts[2] = routing.Drop
	w.AddFlow(ids[0], ids[1], 0.1, 0.1, 4, 64)
	run(t, w, 1.9)
	want := [][]int{{0, 1, 2, 3}, {0, 3}, {0, 3}}
	if len(src.retried) != len(want) {
		t.Fatalf("retries per sweep %v, want %v", src.retried, want)
	}
	for k := range want {
		if !slices.Equal(src.retried[k], want[k]) {
			t.Fatalf("retries per sweep %v, want %v", src.retried, want)
		}
	}
	c := w.Collector()
	if c.DataDelivered != 1 || c.DataDropped != 1 || src.Carried() != 2 {
		t.Fatalf("delivered %d, dropped %d, carried %d; want 1, 1, 2",
			c.DataDelivered, c.DataDropped, src.Carried())
	}
}

func TestCarrierOnSendFailed(t *testing.T) {
	w, ids, routers := carryWorld(t, 100)
	w.StartRun()
	defer w.EndRun()
	if err := w.AdvanceTo(3); err != nil {
		t.Fatal(err)
	}
	src := routers[0]
	if !src.API.HasNeighbor(ids[1]) {
		t.Fatal("neighbor unknown after 3 s of beacons")
	}
	pkt := routing.NewData(src.API, "stub", ids[1], 64)
	ttl := pkt.TTL
	src.OnSendFailed(pkt, ids[1])
	if src.API.HasNeighbor(ids[1]) {
		t.Fatal("failed next hop not forgotten")
	}
	if pkt.TTL != ttl-1 || len(src.next) != 1 || src.next[0] != pkt {
		t.Fatalf("TTL %d → %d, %d fresh attempts; want one decrement and a re-route",
			ttl, pkt.TTL, len(src.next))
	}
	if src.Carried() != 1 {
		t.Fatalf("carried %d, want the re-routed packet", src.Carried())
	}

	last := routing.NewData(src.API, "stub", ids[1], 64)
	last.TTL = 1
	src.OnSendFailed(last, ids[1])
	if c := w.Collector(); c.DataDropped != 1 || len(src.next) != 1 {
		t.Fatalf("expired packet: %d drops, %d fresh attempts; want 1 drop and no re-route",
			c.DataDropped, len(src.next))
	}

	ctrl := &netstack.Packet{Kind: netstack.KindProbe, Dst: ids[1], TTL: 5}
	src.OnSendFailed(ctrl, ids[1])
	if ctrl.TTL != 5 || len(src.next) != 1 || w.Collector().DataDropped != 1 {
		t.Fatal("a failed control packet was routed or dropped")
	}
}

func TestCarrierHandlePacket(t *testing.T) {
	w, ids, routers := carryWorld(t, 100)
	src := routers[0]

	src.HandlePacket(&netstack.Packet{Kind: netstack.KindProbe, Dst: ids[1], TTL: 5})
	if len(src.next) != 0 || src.Carried() != 0 {
		t.Fatal("a control packet reached the data path")
	}

	src.Originate(ids[0], 64)
	if c := w.Collector(); c.DataDelivered != 1 || len(src.next) != 0 {
		t.Fatalf("self-addressed data: %d delivered, %d routed", c.DataDelivered, len(src.next))
	}

	transit := routing.NewData(routers[1].API, "stub", ids[1], 64)
	ttl := transit.TTL
	src.HandlePacket(transit)
	if transit.TTL != ttl-1 || len(src.next) != 1 {
		t.Fatalf("transit data: TTL %d → %d, %d fresh attempts", ttl, transit.TTL, len(src.next))
	}
}
