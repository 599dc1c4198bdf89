package abedi_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/abedi"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), abedi.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
}

func TestDirectionFirstNextHop(t *testing.T) {
	// two relays at the same progress: the same-direction one must carry
	// the reverse route (direction is the most important parameter)
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(20, 0)},
		{Pos: geom.V(200, 12), Vel: geom.V(20, 0)},   // same direction
		{Pos: geom.V(200, -12), Vel: geom.V(-20, 0)}, // opposite
		{Pos: geom.V(400, 0), Vel: geom.V(20, 0)},
	}
	var routers []*abedi.Router
	factory := abedi.New()
	wrapped := func() netstack.Router {
		r := factory().(*abedi.Router)
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
		t.Fatalf("reverse route via %d, want same-direction relay %d", rt.NextHop, ids[1])
	}
	if w.Collector().DataDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestBreakTriggersInvalidation(t *testing.T) {
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(200, 0)},
		{Pos: geom.V(300, 0), Vel: geom.V(15, 0)},
	}
	w, ids := routetest.World(t, 1, vehicles, abedi.New())
	w.AddFlow(ids[0], ids[2], 1, 1, 15, 256)
	if err := w.Run(18); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered == 0 {
		t.Fatal("nothing delivered before the break")
	}
	if c.RouteBreaks == 0 {
		t.Fatal("break never detected")
	}
}
