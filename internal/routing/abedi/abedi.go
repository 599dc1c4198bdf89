// Package abedi implements the mobility-enhanced AODV of Abedi et al.
// (survey Sec. IV-B), which ranks next hops by three mobility parameters
// in strict priority order: direction first ("nodes moving with the same
// directions will be more stable"), then position (progress toward the
// destination), then speed similarity. The ranking is applied as a
// forwarding delay during RREQ dissemination — better-ranked relays
// rebroadcast sooner and win the duplicate-suppression race downstream —
// and as the tie-break when recording reverse routes.
package abedi

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Router is a per-node Abedi instance.
type Router struct {
	routing.TableRouter
	dup   *routing.DupCache
	reqID uint64
	// MaxDelay scales the rank-based rebroadcast delay (default 0.12 s).
	MaxDelay float64
}

// rreq carries the origin's velocity so relays can rank their direction
// agreement with the flow.
type rreq struct {
	Origin    netstack.NodeID
	ReqID     uint64
	Target    netstack.NodeID
	OriginVel geom.Vec2
}

type rrep struct {
	Origin netstack.NodeID
	Target netstack.NodeID
	Hops   int
}

// New returns an Abedi router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{
			TableRouter: routing.TableRouter{Routes: routing.NewTable()},
			dup:         routing.NewDupCache(15),
			MaxDelay:    0.12,
		}
		r.Init(r, 1)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Abedi" }

// Request implements routing.Reactive: one RREQ flood.
func (r *Router) Request(dst netstack.NodeID) bool {
	r.reqID++
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREQ, Proto: r.Name(),
		Src: r.API.Self(), Dst: netstack.Broadcast, TTL: routing.DefaultTTL,
		Size: 56, Created: r.API.Now(),
		Payload: rreq{Origin: r.API.Self(), ReqID: r.reqID, Target: dst, OriginVel: r.API.Vel()},
	}
	r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: r.reqID}, r.API.Now())
	r.API.Send(netstack.Broadcast, pkt)
	return true
}

// relayDelay converts this node's suitability as a relay into a forwarding
// delay in [0, MaxDelay]: direction agreement with the origin's motion is
// the most important parameter, then progress toward the target, then
// speed similarity — Abedi's priority order.
func (r *Router) relayDelay(req rreq) float64 {
	score := 0.0
	// 1. direction (weight 4): same heading as the flow's origin
	if r.API.Vel().Dot(req.OriginVel) > 0 {
		score += 4
	}
	// 2. position (weight 2): closer to the target than typical
	if tPos, _, ok := r.API.LookupPosition(req.Target); ok {
		d := r.API.Pos().Dist(tPos)
		score += 2 * math.Exp(-d/1000)
	}
	// 3. speed similarity (weight 1)
	score += link.SpeedSimilarity(r.API.Vel(), req.OriginVel)
	const maxScore = 7
	frac := 1 - score/maxScore
	if frac < 0 {
		frac = 0
	}
	return frac * r.MaxDelay
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		r.handleRREQ(pkt)
	case netstack.KindRREP:
		r.handleRREP(pkt)
	case netstack.KindData:
		r.HandleData(pkt)
	}
}

func (r *Router) handleRREQ(pkt *netstack.Packet) {
	req, ok := pkt.Payload.(rreq)
	if !ok || req.Origin == r.API.Self() {
		return
	}
	now := r.API.Now()
	// Reverse route: among equal hop counts the longer-lived link, which
	// favours same-direction previous hops, wins.
	r.Routes.MergeReverse(routing.Route{
		Dst: req.Origin, NextHop: pkt.From, Hops: pkt.Hops,
		Expiry: now + 6, Valid: true, Lifetime: routing.LinkLifetime(r.API, pkt.From),
	})
	if r.dup.Seen(routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, now) {
		return
	}
	if req.Target == r.API.Self() {
		rt, okRt := r.Routes.Lookup(req.Origin, now)
		if !okRt {
			return
		}
		out := &netstack.Packet{
			UID: r.API.NewUID(), Kind: netstack.KindRREP, Proto: r.Name(),
			Src: r.API.Self(), Dst: req.Origin, TTL: routing.DefaultTTL,
			Size: 44, Created: now,
			Payload: rrep{Origin: req.Origin, Target: r.API.Self()},
		}
		r.API.Send(rt.NextHop, out)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	delay := r.relayDelay(req)
	fwd := pkt
	r.API.After(delay, func() { r.API.Send(netstack.Broadcast, fwd) })
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(rrep)
	if !ok {
		return
	}
	now := r.API.Now()
	r.Routes.Upsert(routing.Route{
		Dst: rep.Target, NextHop: pkt.From, Hops: rep.Hops + pkt.Hops,
		Expiry: now + 6, Valid: true,
		Lifetime: routing.LinkLifetime(r.API, pkt.From),
	})
	if rep.Origin == r.API.Self() {
		r.Resolve(rep.Target)
		return
	}
	rt, okRt := r.Routes.Lookup(rep.Origin, now)
	if !okRt {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	r.API.Send(rt.NextHop, pkt)
}
