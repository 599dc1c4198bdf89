package core

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// roundRecorder stands in for a ticket router as its discovery's Reactive
// and records the destination of every request round.
type roundRecorder struct {
	*TicketRouter
	rounds []netstack.NodeID
}

func (r *roundRecorder) Request(dst netstack.NodeID) bool {
	r.rounds = append(r.rounds, dst)
	return r.TicketRouter.Request(dst)
}

// TestRouteBreakRestartsInDestinationOrder breaks one first hop that
// carries the paths to four destinations with buffered data. The probe
// rounds must restart in ascending destination order, every time.
func TestRouteBreakRestartsInDestinationOrder(t *testing.T) {
	for i := 0; i < 20; i++ {
		rounds, want := breakFirstHop(t)
		if !slices.Equal(rounds, want) {
			t.Fatalf("run %d: rounds restarted for %v, want %v", i, rounds, want)
		}
	}
}

// breakFirstHop returns the destinations whose rounds restart when the
// shared first hop expires, and the destinations in ascending order.
func breakFirstHop(t *testing.T) (rounds, want []netstack.NodeID) {
	t.Helper()
	// a source, its first hop, and four destinations out of radio range
	vehicles := []routetest.Vehicle{{Pos: geom.V(0, 0)}, {Pos: geom.V(100, 0)}}
	for k := 0; k < 4; k++ {
		vehicles = append(vehicles, routetest.Vehicle{Pos: geom.V(5000+200*float64(k), 0)})
	}
	var src *TicketRouter
	factory := NewTicketRouter()
	w, ids := routetest.World(t, 1, vehicles, func() netstack.Router {
		r := factory()
		if src == nil {
			src = r.(*TicketRouter)
		}
		return r
	})
	rec := &roundRecorder{TicketRouter: src}
	src.Init(rec, 1)
	w.StartRun()
	defer w.EndRun()
	if err := w.AdvanceTo(3); err != nil {
		t.Fatal(err)
	}
	hop, dsts := ids[1], ids[2:]
	// every path leads through hop; the data buffered for each starts a
	// round whose deadline finds the path and ends the discovery, so the
	// data stays buffered behind a known path
	for _, dst := range dsts {
		src.paths[dst] = &activePath{hops: []netstack.NodeID{ids[0], hop, dst}, stability: 60, built: 3}
		src.Buffer(routing.NewData(src.API, src.Name(), dst, 64))
	}
	if err := w.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	for _, dst := range dsts {
		if !src.Waiting(dst) {
			t.Fatalf("no data buffered for %d before the break", dst)
		}
	}
	rec.rounds = nil
	src.OnNeighborExpired(hop)
	return rec.rounds, dsts
}
