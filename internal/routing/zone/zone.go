// Package zone implements the zone dissemination protocols of Bronsted &
// Kristensen (survey Sec. VI-B, Fig. 6): a packet carries a geographic
// zone — "for example, a 500-meter section of a road" — and only nodes
// inside the zone rebroadcast it; nodes outside drop it, so "packets are
// only delivered in a section of a road". Zone routing extends this with
// unicast toward the zone for sources outside it.
package zone

import (
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Policy computes the dissemination zone for a packet from source and
// destination positions. The default corridor policy covers the
// source–destination segment padded by the radio range.
type Policy func(src, dst geom.Vec2, radioRange float64) geom.Rect

// CorridorPolicy is the default zone: the axis-aligned bounding box of the
// src→dst segment expanded by pad meters (pad ≤ 0 means one radio range).
func CorridorPolicy(pad float64) Policy {
	return func(src, dst geom.Vec2, radioRange float64) geom.Rect {
		p := pad
		if p <= 0 {
			p = radioRange
		}
		return geom.NewRect(src, dst).Expand(p)
	}
}

// FixedZone always returns the given rectangle — the paper's "500-meter
// section of a road" configuration for event dissemination.
func FixedZone(r geom.Rect) Policy {
	return func(geom.Vec2, geom.Vec2, float64) geom.Rect { return r }
}

// payload carries the zone with the data.
type payload struct {
	Zone geom.Rect
}

// Router is a per-node zone-flooding router.
type Router struct {
	netstack.Base
	dup    *routing.DupCache
	policy Policy
}

// New returns a zone router factory with the given policy (nil means
// CorridorPolicy(0)).
func New(policy Policy) netstack.RouterFactory {
	if policy == nil {
		policy = CorridorPolicy(0)
	}
	return func() netstack.Router {
		return &Router{dup: routing.NewDupCache(30), policy: policy}
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Zone" }

// Originate implements netstack.Router: stamp the zone and flood within
// it.
func (r *Router) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(r.API, r.Name(), dst, size)
	if dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	srcPos := r.API.Pos()
	dstPos := srcPos
	if p, _, ok := r.API.LookupPosition(dst); ok {
		dstPos = p
	}
	pkt.Payload = payload{Zone: r.policy(srcPos, dstPos, r.API.RangeEstimate())}
	r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, r.API.Now())
	r.API.Send(netstack.Broadcast, pkt)
}

// HandlePacket implements netstack.Router: deliver to the destination;
// rebroadcast only inside the zone.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		return
	}
	pl, ok := pkt.Payload.(payload)
	if !ok {
		return
	}
	if r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, r.API.Now()) {
		return
	}
	if pkt.Dst == r.API.Self() || pkt.Dst == netstack.Broadcast {
		r.API.Deliver(pkt)
		if pkt.Dst == r.API.Self() {
			return
		}
	}
	if !pl.Zone.Contains(r.API.Pos()) {
		return // outside the zone: drop silently
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	r.API.Send(netstack.Broadcast, pkt)
}

// NeedsBeacons implements netstack.Router: zone flooding needs only own
// position, not neighbor state.
func (r *Router) NeedsBeacons() bool { return false }
