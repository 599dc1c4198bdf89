package taleb_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
	"github.com/vanetlab/relroute/internal/routing/taleb"
)

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), taleb.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
}

func TestPrefersSameVelocityGroup(t *testing.T) {
	// Destination can be reached through a same-group relay (eastbound,
	// like source and destination) or an opposite-group relay. The
	// velocity-vector grouping must choose the same-group one.
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(20, 0)},      // 0: source, east
		{Pos: geom.V(200, 12), Vel: geom.V(21, 0)},   // 1: east relay
		{Pos: geom.V(200, -12), Vel: geom.V(-20, 0)}, // 2: west relay
		{Pos: geom.V(400, 0), Vel: geom.V(20, 0)},    // 3: destination, east
	}
	var routers []*taleb.Router
	factory := taleb.New()
	wrapped := func() netstack.Router {
		r := factory().(*taleb.Router)
		routers = append(routers, r)
		return r
	}
	w, ids := routetest.World(t, 1, vehicles, wrapped)
	w.AddFlow(ids[0], ids[3], 2, 1, 3, 256)
	if err := w.Run(7); err != nil {
		t.Fatal(err)
	}
	rt, ok := routers[3].Routes.Get(ids[0])
	if !ok || !rt.Valid {
		t.Fatal("destination has no reverse route")
	}
	if rt.NextHop != ids[1] {
		t.Fatalf("reverse route via %d, want same-group relay %d", rt.NextHop, ids[1])
	}
}

func TestRediscoversBeforePathDuration(t *testing.T) {
	// links live ~(250-180)/7 ≈ 10 s, so the pre-expiry rediscovery must
	// fire within the 14 s run
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(0, 0)},
		{Pos: geom.V(180, 0), Vel: geom.V(7, 0)},
		{Pos: geom.V(360, 0), Vel: geom.V(14, 0)},
	}
	w, ids := routetest.World(t, 1, vehicles, taleb.New())
	w.AddFlow(ids[0], ids[2], 1, 0.5, 20, 256)
	if err := w.Run(14); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.RouteRepairs == 0 {
		t.Fatal("no proactive rediscovery before the shortest link duration")
	}
	if c.DataDelivered < 4 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
}
