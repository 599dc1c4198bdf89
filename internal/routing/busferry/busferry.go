// Package busferry implements Kitani et al.'s bus-based information
// sharing (survey Sec. V-B, marked "Bus"): buses on regular routes act as
// message ferries with larger storage than cars; cars hand packets to
// passing buses, buses carry them along their route, exchange them with
// other buses they meet, and deliver when the destination (or a car much
// closer to it) enters communication range. The design targets sparse
// traffic, where end-to-end V2V paths rarely exist — experiment E-F5's
// regime.
package busferry

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Router runs on both cars and buses; behaviour switches on the node kind.
// Cars keep a small buffer and opportunistically hand packets to buses;
// buses keep a large buffer and deliver/exchange.
type Router struct {
	netstack.Base
	buffer []*entry
	// CarBufferTTL and BusBufferTTL bound packet custody (defaults 10 s
	// and 60 s: "buses are assumed to have larger storage").
	CarBufferTTL float64
	BusBufferTTL float64
	// CarBufferCap and BusBufferCap bound custody counts (32 / 512).
	CarBufferCap int
	BusBufferCap int
	started      bool
	dup          *routing.DupCache
}

type entry struct {
	pkt   *netstack.Packet
	since float64
}

// New returns a bus-ferry router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		return &Router{
			CarBufferTTL: 10, BusBufferTTL: 60,
			CarBufferCap: 32, BusBufferCap: 512,
			dup: routing.NewDupCache(60),
		}
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Bus" }

// Attach implements netstack.Router.
func (r *Router) Attach(api *netstack.API) {
	r.Base.Attach(api)
	if r.started {
		return
	}
	r.started = true
	var sweep func()
	sweep = func() {
		r.tryDeliverAll()
		r.API.After(0.5, sweep)
	}
	api.After(0.5+api.Rand().Float64()*0.1, sweep)
}

func (r *Router) isBus() bool { return r.API.Kind() == netstack.BusNode }

func (r *Router) bufferTTL() float64 {
	if r.isBus() {
		return r.BusBufferTTL
	}
	return r.CarBufferTTL
}

func (r *Router) bufferCap() int {
	if r.isBus() {
		return r.BusBufferCap
	}
	return r.CarBufferCap
}

// Originate implements netstack.Router.
func (r *Router) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(r.API, r.Name(), dst, size)
	if dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	r.custody(pkt)
	r.tryDeliver(pkt)
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		return
	}
	if pkt.Dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	if r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, r.API.Now()) {
		return // already in custody once
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	r.custody(pkt)
	r.tryDeliver(pkt)
}

// custody stores the packet, evicting the oldest if over cap.
func (r *Router) custody(pkt *netstack.Packet) {
	if len(r.buffer) >= r.bufferCap() {
		r.API.Drop(r.buffer[0].pkt)
		r.buffer = r.buffer[1:]
	}
	r.buffer = append(r.buffer, &entry{pkt: pkt, since: r.API.Now()})
}

// tryDeliver attempts to move one packet toward delivery; it reports
// whether the packet left this node.
func (r *Router) tryDeliver(pkt *netstack.Packet) bool {
	// 1. direct delivery
	if r.API.HasNeighbor(pkt.Dst) {
		r.API.Send(pkt.Dst, pkt)
		r.forget(pkt)
		return true
	}
	// 2. cars hand custody to a bus ("buses collect as much traffic
	// information as possible from cars in the communication region")
	if !r.isBus() {
		for _, nb := range r.API.Neighbors() {
			if nb.Kind == netstack.BusNode {
				r.API.Send(nb.ID, pkt)
				r.forget(pkt)
				return true
			}
		}
	}
	return false
}

// forget removes the packet from custody after handing it off.
func (r *Router) forget(pkt *netstack.Packet) {
	for i, e := range r.buffer {
		if e.pkt == pkt {
			r.buffer = append(r.buffer[:i], r.buffer[i+1:]...)
			return
		}
	}
}

// OnSendFailed implements netstack.Router: custody handoff failed — take
// the packet back.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	if pkt.Kind != netstack.KindData {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	r.custody(pkt)
}

// tryDeliverAll retries every buffered packet and expires stale ones.
func (r *Router) tryDeliverAll() {
	if len(r.buffer) == 0 {
		return
	}
	now := r.API.Now()
	keep := r.buffer[:0]
	for _, e := range r.buffer {
		if now-e.since > r.bufferTTL() {
			r.API.Drop(e.pkt)
			continue
		}
		if r.tryDeliverBuffered(e.pkt) {
			continue
		}
		keep = append(keep, e)
	}
	r.buffer = keep
}

// tryDeliverBuffered is tryDeliver without the forget bookkeeping (the
// caller owns buffer mutation).
func (r *Router) tryDeliverBuffered(pkt *netstack.Packet) bool {
	if r.API.HasNeighbor(pkt.Dst) {
		r.API.Send(pkt.Dst, pkt)
		return true
	}
	if !r.isBus() {
		for _, nb := range r.API.Neighbors() {
			if nb.Kind == netstack.BusNode {
				r.API.Send(nb.ID, pkt)
				return true
			}
		}
		return false
	}
	// bus-to-bus exchange: hand off to a bus moving closer to the
	// destination's last known position
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return false
	}
	selfD := r.API.Pos().Dist(dstPos)
	for _, nb := range r.API.Neighbors() {
		if nb.Kind != netstack.BusNode {
			continue
		}
		if nb.Pos.Dist(dstPos) < selfD*0.8 {
			r.API.Send(nb.ID, pkt)
			return true
		}
	}
	return false
}

// Buffered exposes custody depth for tests.
func (r *Router) Buffered() int { return len(r.buffer) }
