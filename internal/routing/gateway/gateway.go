// Package gateway implements LORA-DCBF-style cluster/gateway routing
// (survey Sec. VI-B): the plane is partitioned into fixed geographic
// cells; within each cell exactly one vehicle — the gateway, the node
// closest to the cell center — retransmits flooded control/data packets,
// while "all the members in the zone can read and process the packet; they
// do not retransmit. Only gateway nodes retransmit packets between zones."
// This suppresses the duplicate storm of plain flooding while preserving
// reachability, the effect experiment E-F6 measures.
package gateway

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Option configures the router factory.
type Option func(*Router)

// WithCellSize sets the gateway cell edge in meters (default half the
// radio range at attach time, ~125 m).
func WithCellSize(m float64) Option {
	return func(r *Router) { r.cellSize = m }
}

// Router is a per-node gateway-clustered flooding router.
type Router struct {
	netstack.Base
	dup      *routing.DupCache
	cellSize float64
}

// New returns a gateway router factory.
func New(opts ...Option) netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{dup: routing.NewDupCache(30)}
		for _, o := range opts {
			o(r)
		}
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "LORA-DCBF" }

func (r *Router) cell() float64 {
	if r.cellSize > 0 {
		return r.cellSize
	}
	return r.API.RangeEstimate() / 2
}

// cellCenter returns the center of the cell containing p.
func (r *Router) cellCenter(p geom.Vec2) geom.Vec2 {
	c := r.cell()
	return geom.V(
		(math.Floor(p.X/c)+0.5)*c,
		(math.Floor(p.Y/c)+0.5)*c,
	)
}

// isGateway elects this node the gateway of its cell: closest to the cell
// center among itself and its same-cell neighbors, ties broken by lowest
// ID. The election is recomputed per packet from fresh beacon state, so
// gateways rotate naturally as vehicles move.
func (r *Router) isGateway() bool {
	self := r.API.Pos()
	center := r.cellCenter(self)
	myDist := self.Dist(center)
	myID := r.API.Self()
	for _, nb := range r.API.Neighbors() {
		if r.cellCenter(nb.Pos) != center {
			continue // different cell
		}
		d := nb.Pos.Dist(center)
		if d < myDist || (d == myDist && nb.ID < myID) {
			return false
		}
	}
	return true
}

// Originate implements netstack.Router.
func (r *Router) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(r.API, r.Name(), dst, size)
	if dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	// The source always transmits, gateway or not.
	r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, r.API.Now())
	r.API.Send(netstack.Broadcast, pkt)
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData && pkt.Kind != netstack.KindLREQ {
		return
	}
	if r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, r.API.Now()) {
		return
	}
	// Members read and process...
	if pkt.Dst == r.API.Self() || pkt.Dst == netstack.Broadcast {
		r.API.Deliver(pkt)
		if pkt.Dst == r.API.Self() {
			return
		}
	}
	// ...but only gateways retransmit between zones.
	if !r.isGateway() {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	r.API.Send(netstack.Broadcast, pkt)
}
