package routing_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// stubRouter is the smallest reactive router: its known routes are next
// hops a test installs by hand, and a request round only records its
// time (and may run a test hook).
type stubRouter struct {
	routing.Discovery[netstack.NodeID]
	routes    map[netstack.NodeID]netstack.NodeID
	rounds    []float64 // sim time of every request round
	onRequest func(r *stubRouter, dst netstack.NodeID)
	refuse    bool // Request reports that no round could go out
	delivered []*netstack.Packet
}

func (r *stubRouter) Name() string { return "stub" }

func (r *stubRouter) Request(dst netstack.NodeID) bool {
	if r.refuse {
		return false
	}
	r.rounds = append(r.rounds, r.API.Now())
	if r.onRequest != nil {
		r.onRequest(r, dst)
	}
	return true
}

func (r *stubRouter) Route(dst netstack.NodeID, _ bool) (netstack.NodeID, bool) {
	hop, ok := r.routes[dst]
	return hop, ok
}

func (r *stubRouter) SendVia(pkt *netstack.Packet, hop netstack.NodeID) { r.API.Send(hop, pkt) }

func (r *stubRouter) HandlePacket(pkt *netstack.Packet) {
	if pkt.Data && pkt.Dst == r.API.Self() {
		r.delivered = append(r.delivered, pkt)
		r.API.Deliver(pkt)
	}
}

// stubWorld builds two stationary neighbors running stub routers whose
// request rounds wait timeout seconds, and returns the world, the node IDs
// and the two routers.
func stubWorld(t *testing.T, timeout float64) (*netstack.World, []netstack.NodeID, []*stubRouter) {
	t.Helper()
	var routers []*stubRouter
	factory := func() netstack.Router {
		r := &stubRouter{routes: make(map[netstack.NodeID]netstack.NodeID)}
		r.Init(r, timeout)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, routetest.Chain(2, 100, 0), factory)
	return w, ids, routers
}

func run(t *testing.T, w *netstack.World, until float64) {
	t.Helper()
	if err := w.Run(until); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoveryGivesUpAfterThreeRounds(t *testing.T) {
	w, ids, routers := stubWorld(t, 1)
	w.AddFlow(ids[0], ids[1], 1, 0.1, 3, 64)
	run(t, w, 10)
	src := routers[0]
	if want := []float64{1, 2, 3}; !equalTimes(src.rounds, want) {
		t.Fatalf("request rounds at %v, want %v", src.rounds, want)
	}
	c := w.Collector()
	if c.RouteDiscoveries != 3 {
		t.Fatalf("RouteDiscoveries = %d, want 3", c.RouteDiscoveries)
	}
	if c.DataDropped != 3 || c.DataDelivered != 0 {
		t.Fatalf("dropped %d, delivered %d; want every buffered packet dropped", c.DataDropped, c.DataDelivered)
	}
	if src.Waiting(ids[1]) {
		t.Fatal("give-up left packets buffered")
	}
}

func TestDiscoveryRefusedRoundGivesUpAtOnce(t *testing.T) {
	w, ids, routers := stubWorld(t, 1)
	routers[0].refuse = true
	w.AddFlow(ids[0], ids[1], 1, 1, 1, 64)
	run(t, w, 5)
	c := w.Collector()
	if c.RouteDiscoveries != 1 || c.DataDropped != 1 {
		t.Fatalf("discoveries %d, dropped %d; want 1 and 1", c.RouteDiscoveries, c.DataDropped)
	}
}

func TestDiscoveryRouteBeforeDeadlineStopsRetries(t *testing.T) {
	w, ids, routers := stubWorld(t, 1)
	src := routers[0]
	// A route shows up half-way through the first round without a reply
	// (as a reverse route would): the deadline sees it and stops, and the
	// buffered packet waits for a later flush.
	src.onRequest = func(r *stubRouter, dst netstack.NodeID) {
		r.API.After(0.5, func() { r.routes[dst] = dst })
	}
	w.AddFlow(ids[0], ids[1], 1, 1, 1, 64)
	run(t, w, 6)
	if len(src.rounds) != 1 {
		t.Fatalf("request rounds at %v, want one", src.rounds)
	}
	if c := w.Collector(); c.DataDropped != 0 {
		t.Fatalf("dropped %d packets; the buffer must survive", c.DataDropped)
	}
	if !src.Waiting(ids[1]) {
		t.Fatal("buffered packet lost")
	}
}

func TestDiscoveryResolveFlushesAlongTheRoute(t *testing.T) {
	w, ids, routers := stubWorld(t, 1)
	src := routers[0]
	src.onRequest = func(r *stubRouter, dst netstack.NodeID) {
		r.API.After(0.5, func() {
			r.routes[dst] = dst
			r.Resolve(dst)
		})
	}
	w.AddFlow(ids[0], ids[1], 1, 0.1, 3, 64)
	run(t, w, 6)
	if len(src.rounds) != 1 {
		t.Fatalf("request rounds at %v, want one", src.rounds)
	}
	if c := w.Collector(); c.DataDelivered != 3 || c.DataDropped != 0 {
		t.Fatalf("delivered %d, dropped %d; want 3 and 0", c.DataDelivered, c.DataDropped)
	}
}

func TestDiscoveryNoNewRoundWhileInFlight(t *testing.T) {
	w, ids, routers := stubWorld(t, 1)
	// four packets inside the first round, then one inside the second
	w.AddFlow(ids[0], ids[1], 1, 0.2, 4, 64)
	w.AddFlow(ids[0], ids[1], 2.5, 1, 1, 64)
	run(t, w, 10)
	if want := []float64{1, 2, 3}; !equalTimes(routers[0].rounds, want) {
		t.Fatalf("request rounds at %v, want %v", routers[0].rounds, want)
	}
	if c := w.Collector(); c.DataDropped != 5 {
		t.Fatalf("dropped %d, want all 5 at give-up", c.DataDropped)
	}
}

func TestDiscoveryBufferEvictsOldest(t *testing.T) {
	w, ids, routers := stubWorld(t, 1)
	src := routers[0]
	// 17 packets 10 ms apart, then the route and the flush
	w.AddFlow(ids[0], ids[1], 1, 0.01, 17, 64)
	w.Engine().At(1.5, func() {
		if c := w.Collector(); c.DataDropped != 1 {
			t.Errorf("dropped %d before the flush, want the one evicted", c.DataDropped)
		}
		src.routes[ids[1]] = ids[1]
		src.Resolve(ids[1])
	})
	run(t, w, 6)
	got := routers[1].delivered
	if len(got) != 16 {
		t.Fatalf("delivered %d, want 16", len(got))
	}
	for _, p := range got {
		if p.Created < 1.005 {
			t.Fatalf("the oldest packet (created %.2f) was delivered, not evicted", p.Created)
		}
	}
}

func TestDiscoveryFlushDropsStalePackets(t *testing.T) {
	// 6 s rounds keep one discovery in flight for 18 s
	w, ids, routers := stubWorld(t, 6)
	src := routers[0]
	w.AddFlow(ids[0], ids[1], 1, 4, 2, 64) // at 1 s and 5 s
	w.Engine().At(12, func() {
		src.routes[ids[1]] = ids[1]
		src.Resolve(ids[1])
	})
	run(t, w, 15)
	c := w.Collector()
	if c.DataDropped != 1 || c.DataDelivered != 1 {
		t.Fatalf("dropped %d, delivered %d; want the 11 s old packet dropped and the 7 s old one sent",
			c.DataDropped, c.DataDelivered)
	}
	if got := routers[1].delivered[0].Created; got != 5 {
		t.Fatalf("delivered the packet created at %v, want 5", got)
	}
}

func equalTimes(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			return false
		}
	}
	return true
}
