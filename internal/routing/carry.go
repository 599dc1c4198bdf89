package routing

import "github.com/vanetlab/relroute/internal/netstack"

// carrySweep is the period, in seconds, at which carried packets are
// retried. The first sweep runs after carrySweep plus up to 0.1 s of
// per-node jitter.
const carrySweep = 0.5

// Verdict is a position-based router's decision for one packet.
type Verdict uint8

const (
	// Carry keeps the packet in the carry buffer until the next sweep.
	Carry Verdict = iota
	// Forward unicasts the packet to the chosen neighbor.
	Forward
	// Drop abandons the packet.
	Drop
)

// Geographic is what a store-carry-forward router supplies to its
// Carrier: where a packet goes next, on a fresh attempt and on a sweep
// retry.
type Geographic interface {
	// Name labels the router's data packets.
	Name() string
	// NextHop decides a fresh attempt: a packet just originated, received
	// for forwarding, or bounced by a failed unicast.
	NextHop(pkt *netstack.Packet) (netstack.NodeID, Verdict)
	// RetryHop decides the retry of a carried packet at a sweep.
	RetryHop(pkt *netstack.Packet) (netstack.NodeID, Verdict)
}

// Carrier is the store-carry-forward skeleton of the position-based
// routers (Greedy, CAR, GVGrid, REAR and the DRR vehicle router). It owns
// the data path, the reaction to a failed unicast, and the carry buffer: a
// packet with no next hop is carried and retried every sweep until it
// leaves or has been carried longer than the timeout. The router decides
// only the next hop.
//
// A router embeds Carrier by value in place of netstack.Base and binds it
// with Init.
type Carrier struct {
	netstack.Base
	r       Geographic
	timeout float64
	carried []carriedPacket
}

type carriedPacket struct {
	pkt   *netstack.Packet
	since float64
}

// Init binds c to r, the router that embeds it. A packet carried longer
// than timeout seconds is dropped at the next sweep.
func (c *Carrier) Init(r Geographic, timeout float64) {
	c.r = r
	c.timeout = timeout
}

// Attach implements netstack.Router and starts the carry sweep, once.
func (c *Carrier) Attach(api *netstack.API) {
	started := c.API != nil
	c.Base.Attach(api)
	if started {
		return
	}
	var sweep func()
	sweep = func() {
		c.sweep()
		c.API.After(carrySweep, sweep)
	}
	api.After(carrySweep+api.Rand().Float64()*0.1, sweep)
}

// Originate implements netstack.Router.
func (c *Carrier) Originate(dst netstack.NodeID, size int) {
	pkt := NewData(c.API, c.r.Name(), dst, size)
	if dst == c.API.Self() {
		c.API.Deliver(pkt)
		return
	}
	c.Route(pkt)
}

// HandlePacket implements netstack.Router: data addressed here is
// delivered, other data is forwarded while its TTL lasts.
func (c *Carrier) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		return
	}
	if pkt.Dst == c.API.Self() {
		c.API.Deliver(pkt)
		return
	}
	c.reroute(pkt)
}

// OnSendFailed implements netstack.Router: the neighbor is forgotten and a
// data packet is routed again while its TTL lasts.
func (c *Carrier) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	c.API.ForgetNeighbor(to)
	if pkt.Kind != netstack.KindData {
		return
	}
	c.reroute(pkt)
}

// reroute spends one hop of pkt's TTL and routes it, or drops it when
// the TTL is exhausted.
func (c *Carrier) reroute(pkt *netstack.Packet) {
	pkt.TTL--
	if pkt.Expired() {
		c.API.Drop(pkt)
		return
	}
	c.Route(pkt)
}

// Route makes a fresh attempt for pkt: it is sent, carried or dropped as
// the router's NextHop decides.
func (c *Carrier) Route(pkt *netstack.Packet) {
	switch to, v := c.r.NextHop(pkt); v {
	case Forward:
		c.API.Send(to, pkt)
	case Drop:
		c.API.Drop(pkt)
	default:
		c.carried = append(c.carried, carriedPacket{pkt: pkt, since: c.API.Now()})
	}
}

// sweep drops packets carried longer than the timeout and gives every
// other one a retry; packets still without a next hop stay, in order.
func (c *Carrier) sweep() {
	if len(c.carried) == 0 {
		return
	}
	now := c.API.Now()
	keep := c.carried[:0]
	for _, cp := range c.carried {
		if now-cp.since > c.timeout {
			c.API.Drop(cp.pkt)
			continue
		}
		switch to, v := c.r.RetryHop(cp.pkt); v {
		case Forward:
			c.API.Send(to, cp.pkt)
		case Drop:
			c.API.Drop(cp.pkt)
		default:
			keep = append(keep, cp)
		}
	}
	clear(c.carried[len(keep):])
	c.carried = keep
}

// Carried reports how many packets are being carried.
func (c *Carrier) Carried() int { return len(c.carried) }
