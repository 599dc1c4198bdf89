package routing

import "github.com/vanetlab/relroute/internal/netstack"

// The on-demand budget every reactive router shares.
const (
	// pendingCap is how many data packets wait per destination; beyond
	// it the oldest is evicted and dropped.
	pendingCap = 16
	// pendingMaxWait is how long, in seconds, a buffered packet stays
	// worth sending; older ones are dropped at flush.
	pendingMaxWait = 10.0
	// discoveryRetries is how many request rounds may follow the first
	// before the discovery gives up.
	discoveryRetries = 2
)

// Reactive is what an on-demand router supplies to its Discovery: how to
// send one request round, and how to find and follow a known route of
// type R (a table next hop, a cached source route, a probed path).
type Reactive[R any] interface {
	// Name labels the router's data packets.
	Name() string
	// OnNeighborExpired is the router's reaction to a broken link, which
	// TableRouter.OnSendFailed runs.
	OnNeighborExpired(id netstack.NodeID)
	// Request sends one request round for dst. It reports false when no
	// request could go out, and the discovery then gives up at once.
	Request(dst netstack.NodeID) bool
	// Route looks up the known route to dst. use is true when a new data
	// packet is about to take the route (AODV refreshes it then); the
	// deadline and the flush only look.
	Route(dst netstack.NodeID, use bool) (R, bool)
	// SendVia sends pkt along rt.
	SendVia(pkt *netstack.Packet, rt R)
}

// Discovery is the on-demand skeleton of the reactive routers (AODV, DSR,
// PBR, Taleb, Abedi, NiuDe and the ticket-probing routers). It buffers
// data for destinations without a route, sends a request round, retries
// on a deadline, gives up by dropping the buffer, and flushes the buffer
// once a route is found. The router decides only how a round is sent and
// how a route is followed.
//
// A router embeds Discovery by value in place of netstack.Base and binds
// it with Init. It allocates nothing until its first discovery starts.
type Discovery[R any] struct {
	netstack.Base
	r       Reactive[R]
	timeout float64
	pending pendingQueue
	trying  map[netstack.NodeID]int // dst → rounds left after the current one
}

// Init binds d to r, the router that embeds it. Each request round waits
// timeout seconds for a route before the next round or the give-up.
func (d *Discovery[R]) Init(r Reactive[R], timeout float64) {
	d.r = r
	d.timeout = timeout
}

// Originate implements netstack.Router: data for a known route leaves at
// once, anything else is buffered behind a discovery.
func (d *Discovery[R]) Originate(dst netstack.NodeID, size int) {
	pkt := NewData(d.API, d.r.Name(), dst, size)
	if dst == d.API.Self() {
		d.API.Deliver(pkt)
		return
	}
	if rt, ok := d.r.Route(dst, true); ok {
		d.r.SendVia(pkt, rt)
		return
	}
	d.Buffer(pkt)
}

// Buffer holds pkt until a route to pkt.Dst is found and starts a
// discovery for it. A full buffer evicts and drops its oldest packet.
func (d *Discovery[R]) Buffer(pkt *netstack.Packet) {
	if ev := d.pending.Push(pkt.Dst, pkt); ev != nil {
		d.API.Drop(ev)
	}
	d.Start(pkt.Dst)
}

// Start begins a discovery for dst unless one is already in flight.
func (d *Discovery[R]) Start(dst netstack.NodeID) {
	if _, inFlight := d.trying[dst]; inFlight {
		return
	}
	if d.trying == nil {
		d.trying = make(map[netstack.NodeID]int)
	}
	d.trying[dst] = discoveryRetries
	d.round(dst)
}

// Waiting reports whether data for dst is buffered.
func (d *Discovery[R]) Waiting(dst netstack.NodeID) bool { return d.pending.Waiting(dst) }

// Resolve ends the discovery for dst, typically on a reply, and flushes
// its buffer: packets older than the wait limit are dropped, the rest
// follow the route, or are dropped too when there is none.
func (d *Discovery[R]) Resolve(dst netstack.NodeID) {
	delete(d.trying, dst)
	fresh, expired := d.pending.PopAll(dst, d.API.Now())
	for _, p := range expired {
		d.API.Drop(p)
	}
	rt, ok := d.r.Route(dst, false)
	for _, p := range fresh {
		if ok {
			d.r.SendVia(p, rt)
		} else {
			d.API.Drop(p)
		}
	}
}

// RebuildAfter schedules a preemptive rebuild lead seconds from now: if a
// route to dst or data for it remains then, it counts a repair and
// rediscovers dst.
func (d *Discovery[R]) RebuildAfter(lead float64, dst netstack.NodeID) {
	d.API.After(lead, func() {
		if _, ok := d.r.Route(dst, false); ok || d.pending.Waiting(dst) {
			d.API.Metrics().RouteRepairs++
			d.Start(dst)
		}
	})
}

// round sends one request round and arms its deadline.
func (d *Discovery[R]) round(dst netstack.NodeID) {
	d.API.Metrics().RouteDiscoveries++
	if !d.r.Request(dst) {
		d.giveUp(dst)
		return
	}
	d.API.After(d.timeout, func() { d.deadline(dst) })
}

// deadline ends a round: a route found meanwhile stops the retries, an
// exhausted budget gives up, anything else sends the next round.
func (d *Discovery[R]) deadline(dst netstack.NodeID) {
	retries, inFlight := d.trying[dst]
	if !inFlight {
		return
	}
	if _, ok := d.r.Route(dst, false); ok {
		delete(d.trying, dst)
		return
	}
	if retries <= 0 {
		d.giveUp(dst)
		return
	}
	d.trying[dst] = retries - 1
	d.round(dst)
}

// giveUp ends the discovery for dst and drops everything buffered for it.
func (d *Discovery[R]) giveUp(dst netstack.NodeID) {
	delete(d.trying, dst)
	fresh, expired := d.pending.PopAll(dst, d.API.Now())
	for _, p := range fresh {
		d.API.Drop(p)
	}
	for _, p := range expired {
		d.API.Drop(p)
	}
}

// NewData builds a data packet from this node to dst; its UID is drawn
// first.
func NewData(api *netstack.API, proto string, dst netstack.NodeID, size int) *netstack.Packet {
	return &netstack.Packet{
		UID: api.NewUID(), Kind: netstack.KindData, Data: true, Proto: proto,
		Src: api.Self(), Dst: dst, TTL: DefaultTTL, Size: size,
		Created: api.Now(),
	}
}

// TableRouter is the Discovery of a router whose known routes are next
// hops in a route Table (AODV and the lifetime-table routers PBR, Taleb,
// Abedi and NiuDe). It also carries their shared data path.
type TableRouter struct {
	Discovery[*Route]
	Routes *Table
}

// Route implements Reactive: the valid, unexpired table entry for dst.
func (t *TableRouter) Route(dst netstack.NodeID, _ bool) (*Route, bool) {
	return t.Routes.Lookup(dst, t.API.Now())
}

// SendVia implements Reactive: unicast to the route's next hop.
func (t *TableRouter) SendVia(pkt *netstack.Packet, rt *Route) {
	t.API.Send(rt.NextHop, pkt)
}

// HandleData delivers a data packet addressed here or forwards it one hop
// along the table. It drops the packet when its TTL runs out or no route
// exists.
func (t *TableRouter) HandleData(pkt *netstack.Packet) {
	if pkt.Dst == t.API.Self() {
		t.API.Deliver(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		t.API.Drop(pkt)
		return
	}
	if rt, ok := t.Routes.Lookup(pkt.Dst, t.API.Now()); ok {
		t.API.Send(rt.NextHop, pkt)
		return
	}
	t.API.Drop(pkt)
}

// OnNeighborExpired implements netstack.Router: every route through id
// breaks.
func (t *TableRouter) OnNeighborExpired(id netstack.NodeID) {
	broken := t.Routes.InvalidateVia(id)
	t.API.Metrics().RouteBreaks += len(broken)
}

// OnSendFailed implements netstack.Router: a failed unicast is a broken
// link. The neighbor is forgotten, the router's own OnNeighborExpired
// runs (AODV's reports the break), and a data packet is dropped.
func (t *TableRouter) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	t.API.ForgetNeighbor(to)
	t.r.OnNeighborExpired(to)
	if pkt.Data {
		t.API.Drop(pkt)
	}
}

// pendingQueue buffers data packets awaiting a route, per destination.
// The zero value is ready to use.
type pendingQueue struct {
	byDst map[netstack.NodeID][]*netstack.Packet
}

// Push buffers pkt for dst. When pendingCap packets already wait for dst
// the oldest is evicted and returned; the queue keeps no reference to it.
//
// Contract: the caller owns the evicted packet and must terminate its
// journey — Drop it, so the loss is counted. Ignoring the return value
// leaks the packet from the accounting: it was accepted from the
// application but silently vanishes from both the delivered and dropped
// columns.
func (q *pendingQueue) Push(dst netstack.NodeID, pkt *netstack.Packet) (evicted *netstack.Packet) {
	if q.byDst == nil {
		q.byDst = make(map[netstack.NodeID][]*netstack.Packet)
	}
	list := q.byDst[dst]
	if len(list) >= pendingCap {
		evicted = list[0]
		list = list[1:]
	}
	q.byDst[dst] = append(list, pkt)
	return evicted
}

// PopAll removes and returns every buffered packet for dst that has not
// waited longer than pendingMaxWait by now; expired ones are returned
// separately.
func (q *pendingQueue) PopAll(dst netstack.NodeID, now float64) (fresh, expired []*netstack.Packet) {
	list := q.byDst[dst]
	delete(q.byDst, dst)
	for _, p := range list {
		if now-p.Created > pendingMaxWait {
			expired = append(expired, p)
		} else {
			fresh = append(fresh, p)
		}
	}
	return fresh, expired
}

// Waiting reports whether packets are buffered for dst.
func (q *pendingQueue) Waiting(dst netstack.NodeID) bool { return len(q.byDst[dst]) > 0 }
