// Package rsu implements infrastructure-based routing (survey Sec. V,
// Fig. 5) in the style of He et al.'s DRR: stationary road-side units
// (RSUs) "are connected by backbone links with high bandwidth, low delay,
// and low bit error rates"; vehicles use V2V greedy forwarding where it
// works, and when the vehicular path is broken an RSU acts as a virtual
// equivalent node (VEN), relaying — or buffering — the packet over the
// backbone to the RSU nearest the destination's last known position.
// "After a vehicle successfully connects with an RSU, its position
// information is synchronized to all related RSU instantly."
package rsu

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Backbone is the wired interconnect shared by all RSU routers of a
// scenario, including the synchronized vehicle location registry.
type Backbone struct {
	// Delay is the one-way backbone latency in seconds (default 2 ms).
	Delay float64
	rsus  map[netstack.NodeID]*UnitRouter
	// lastSeen maps a vehicle to the RSU that most recently heard its
	// beacon — the "position synchronized to all related RSU" registry.
	lastSeen map[netstack.NodeID]netstack.NodeID
}

// NewBackbone returns an empty backbone.
func NewBackbone() *Backbone {
	return &Backbone{
		Delay:    2e-3,
		rsus:     make(map[netstack.NodeID]*UnitRouter),
		lastSeen: make(map[netstack.NodeID]netstack.NodeID),
	}
}

func (b *Backbone) delay() float64 {
	if b.Delay <= 0 {
		return 2e-3
	}
	return b.Delay
}

// register adds an RSU router to the backbone.
func (b *Backbone) register(u *UnitRouter) { b.rsus[u.API.Self()] = u }

// noteVehicle updates the location registry. On a handover (the vehicle
// surfaced under a different RSU) every packet buffered for it elsewhere
// is re-transferred to the new owner — the "position information is
// synchronized to all related RSU instantly" behaviour of DRR.
func (b *Backbone) noteVehicle(vehicle, rsu netstack.NodeID) {
	prev, had := b.lastSeen[vehicle]
	b.lastSeen[vehicle] = rsu
	if had && prev == rsu {
		return
	}
	owner, ok := b.rsus[rsu]
	if !ok {
		return
	}
	for id, u := range b.rsus {
		if id == rsu {
			continue
		}
		for _, pkt := range u.takeBuffered(vehicle) {
			b.transfer(u, owner, pkt)
		}
	}
}

// rsuFor returns the RSU that last heard the vehicle, or the RSU closest
// to the vehicle's registered position.
func (b *Backbone) rsuFor(vehicle netstack.NodeID, fallbackPos geom.Vec2, hasPos bool) (*UnitRouter, bool) {
	if id, ok := b.lastSeen[vehicle]; ok {
		if u, okU := b.rsus[id]; okU {
			return u, true
		}
	}
	if !hasPos {
		return nil, false
	}
	var best *UnitRouter
	bd := math.Inf(1)
	for _, u := range b.rsus {
		if d := u.API.Pos().DistSq(fallbackPos); d < bd {
			bd = d
			best = u
		}
	}
	return best, best != nil
}

// transfer moves a packet over the backbone to the target RSU with the
// configured delay.
func (b *Backbone) transfer(from *UnitRouter, to *UnitRouter, pkt *netstack.Packet) {
	from.API.After(b.delay(), func() { to.receiveFromBackbone(pkt) })
}

// UnitRouter runs on an RSU node: it delivers buffered packets to
// destination vehicles entering its coverage and accepts handoffs from
// vehicles and the backbone.
type UnitRouter struct {
	netstack.Base
	backbone *Backbone
	buffered map[netstack.NodeID][]*netstack.Packet
	// BufferTTL bounds how long a packet is held for an absent vehicle
	// (default 30 s).
	BufferTTL float64
	started   bool
}

// NewUnit returns a router for one RSU attached to the backbone.
func NewUnit(b *Backbone) *UnitRouter {
	return &UnitRouter{
		backbone:  b,
		buffered:  make(map[netstack.NodeID][]*netstack.Packet),
		BufferTTL: 30,
	}
}

// Name implements netstack.Router.
func (u *UnitRouter) Name() string { return "DRR-RSU" }

// Attach implements netstack.Router.
func (u *UnitRouter) Attach(api *netstack.API) {
	u.Base.Attach(api)
	u.backbone.register(u)
	if u.started {
		return
	}
	u.started = true
	var sweep func()
	sweep = func() {
		u.flushBuffers()
		u.API.After(0.25, sweep)
	}
	api.After(0.25, sweep)
}

// OnBeacon implements netstack.Router: every vehicle beacon an RSU hears
// synchronizes the location registry.
func (u *UnitRouter) OnBeacon(nb netstack.Neighbor) {
	if nb.Kind == netstack.Vehicle || nb.Kind == netstack.BusNode {
		u.backbone.noteVehicle(nb.ID, u.API.Self())
	}
}

// Originate implements netstack.Router: RSUs do not originate app data in
// the experiments; treat as deliver-to-self or drop.
func (u *UnitRouter) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(u.API, u.Name(), dst, size)
	u.handleData(pkt)
}

// HandlePacket implements netstack.Router.
func (u *UnitRouter) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		return
	}
	u.handleData(pkt)
}

func (u *UnitRouter) handleData(pkt *netstack.Packet) {
	if pkt.Dst == u.API.Self() {
		u.API.Deliver(pkt)
		return
	}
	// direct delivery if the destination is under our coverage
	if u.API.HasNeighbor(pkt.Dst) {
		pkt.TTL--
		if pkt.Expired() {
			u.API.Drop(pkt)
			return
		}
		u.API.Send(pkt.Dst, pkt)
		return
	}
	// backbone transfer toward the RSU that owns the destination
	dstPos, _, hasPos := u.API.LookupPosition(pkt.Dst)
	target, ok := u.backbone.rsuFor(pkt.Dst, dstPos, hasPos)
	if ok && target != u {
		u.backbone.transfer(u, target, pkt)
		return
	}
	// we are the best RSU: buffer as a virtual equivalent node
	u.buffer(pkt)
}

// receiveFromBackbone accepts a packet transferred over the wire.
func (u *UnitRouter) receiveFromBackbone(pkt *netstack.Packet) {
	if u.API.HasNeighbor(pkt.Dst) {
		pkt.TTL--
		if pkt.Expired() {
			u.API.Drop(pkt)
			return
		}
		u.API.Send(pkt.Dst, pkt)
		return
	}
	u.buffer(pkt)
}

func (u *UnitRouter) buffer(pkt *netstack.Packet) {
	u.buffered[pkt.Dst] = append(u.buffered[pkt.Dst], pkt)
}

// takeBuffered removes and returns every packet buffered for dst (used by
// the backbone during a handover).
func (u *UnitRouter) takeBuffered(dst netstack.NodeID) []*netstack.Packet {
	list := u.buffered[dst]
	delete(u.buffered, dst)
	return list
}

// flushBuffers delivers buffered packets whose destinations have arrived
// and expires stale ones.
func (u *UnitRouter) flushBuffers() {
	now := u.API.Now()
	for dst, list := range u.buffered {
		if u.API.HasNeighbor(dst) {
			for _, pkt := range list {
				pkt.TTL--
				if pkt.Expired() {
					u.API.Drop(pkt)
					continue
				}
				u.API.Send(dst, pkt)
			}
			delete(u.buffered, dst)
			continue
		}
		keep := list[:0]
		for _, pkt := range list {
			if now-pkt.Created > u.BufferTTL {
				u.API.Drop(pkt)
				continue
			}
			keep = append(keep, pkt)
		}
		if len(keep) == 0 {
			delete(u.buffered, dst)
		} else {
			u.buffered[dst] = keep
		}
	}
}

// OnSendFailed implements netstack.Router: the vehicle left coverage
// mid-delivery — re-buffer and retry on the sweep.
func (u *UnitRouter) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	u.API.ForgetNeighbor(to)
	if pkt.Data && pkt.Dst == to {
		u.buffer(pkt)
	}
}

// Buffered exposes the buffer depth for tests.
func (u *UnitRouter) Buffered() int {
	n := 0
	for _, l := range u.buffered {
		n += len(l)
	}
	return n
}

// VehicleRouter runs on vehicles in the DRR scenario: greedy V2V toward
// the destination while progress exists; otherwise hand the packet to any
// RSU in range (the differentiated reliable path), falling back to a short
// carry while neither works.
type VehicleRouter struct {
	netstack.Base
	carried []*carriedPacket
	// CarryTimeout bounds the local buffer (default 5 s).
	CarryTimeout float64
	started      bool
}

type carriedPacket struct {
	pkt   *netstack.Packet
	since float64
}

// NewVehicle returns a factory for DRR vehicle routers.
func NewVehicle() netstack.RouterFactory {
	return func() netstack.Router { return &VehicleRouter{CarryTimeout: 5} }
}

// Name implements netstack.Router.
func (v *VehicleRouter) Name() string { return "DRR" }

// Attach implements netstack.Router.
func (v *VehicleRouter) Attach(api *netstack.API) {
	v.Base.Attach(api)
	if v.started {
		return
	}
	v.started = true
	var sweep func()
	sweep = func() {
		v.retryCarried()
		v.API.After(0.5, sweep)
	}
	api.After(0.5+api.Rand().Float64()*0.1, sweep)
}

// Originate implements netstack.Router.
func (v *VehicleRouter) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(v.API, v.Name(), dst, size)
	if dst == v.API.Self() {
		v.API.Deliver(pkt)
		return
	}
	v.route(pkt)
}

// HandlePacket implements netstack.Router.
func (v *VehicleRouter) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		return
	}
	if pkt.Dst == v.API.Self() {
		v.API.Deliver(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		v.API.Drop(pkt)
		return
	}
	v.route(pkt)
}

func (v *VehicleRouter) route(pkt *netstack.Packet) {
	if v.API.HasNeighbor(pkt.Dst) {
		v.API.Send(pkt.Dst, pkt)
		return
	}
	// greedy V2V progress through vehicles only
	if dstPos, _, ok := v.API.LookupPosition(pkt.Dst); ok {
		self := v.API.Pos().Dist(dstPos)
		var best netstack.NodeID
		bestD := self
		found := false
		for _, nb := range v.API.Neighbors() {
			if nb.Kind == netstack.RSU {
				continue
			}
			if d := nb.Pos.Dist(dstPos); d < bestD {
				bestD = d
				best = nb.ID
				found = true
			}
		}
		if found {
			v.API.Send(best, pkt)
			return
		}
	}
	// no vehicular progress: differentiated path through the nearest RSU
	var rsuID netstack.NodeID
	rsuFound := false
	rsuDist := math.Inf(1)
	for _, nb := range v.API.Neighbors() {
		if nb.Kind != netstack.RSU {
			continue
		}
		if d := nb.Pos.DistSq(v.API.Pos()); d < rsuDist {
			rsuDist = d
			rsuID = nb.ID
			rsuFound = true
		}
	}
	if rsuFound {
		v.API.Send(rsuID, pkt)
		return
	}
	v.carried = append(v.carried, &carriedPacket{pkt: pkt, since: v.API.Now()})
}

// OnSendFailed implements netstack.Router.
func (v *VehicleRouter) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	v.API.ForgetNeighbor(to)
	if pkt.Kind != netstack.KindData {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		v.API.Drop(pkt)
		return
	}
	v.route(pkt)
}

func (v *VehicleRouter) retryCarried() {
	if len(v.carried) == 0 {
		return
	}
	now := v.API.Now()
	keep := v.carried[:0]
	for _, c := range v.carried {
		if now-c.since > v.CarryTimeout {
			v.API.Drop(c.pkt)
			continue
		}
		// retry the full decision ladder
		before := len(v.carried)
		_ = before
		if v.tryOnce(c.pkt) {
			continue
		}
		keep = append(keep, c)
	}
	v.carried = keep
}

// tryOnce attempts one routing step; it reports whether the packet left
// this node.
func (v *VehicleRouter) tryOnce(pkt *netstack.Packet) bool {
	if v.API.HasNeighbor(pkt.Dst) {
		v.API.Send(pkt.Dst, pkt)
		return true
	}
	for _, nb := range v.API.Neighbors() {
		if nb.Kind == netstack.RSU {
			v.API.Send(nb.ID, pkt)
			return true
		}
	}
	if dstPos, _, ok := v.API.LookupPosition(pkt.Dst); ok {
		self := v.API.Pos().Dist(dstPos)
		for _, nb := range v.API.Neighbors() {
			if nb.Kind != netstack.RSU && nb.Pos.Dist(dstPos) < self {
				v.API.Send(nb.ID, pkt)
				return true
			}
		}
	}
	return false
}
