// Package aodv implements Ad hoc On-demand Distance Vector routing
// (Perkins et al., RFC 3561), the canonical enhanced-flooding protocol of
// the survey's connectivity category (Sec. III): route discovery floods
// RREQ control packets, the destination (or an intermediate node with a
// fresh-enough route) returns an RREP along the reverse path, data then
// follows the established hop-by-hop route, and RERR reports broken links.
// The survey's Fig. 2 is exactly one discovery round of this protocol,
// which experiment E-F2 traces.
package aodv

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Option configures the router factory.
type Option func(*Router)

// WithNetDiameter sets the RREQ TTL (default routing.DefaultTTL).
func WithNetDiameter(ttl int) Option {
	return func(r *Router) { r.netDiameter = ttl }
}

// routeLifetime is the active-route timeout in seconds.
const routeLifetime = 6

// Router is a per-node AODV instance.
type Router struct {
	routing.TableRouter
	dup *routing.DupCache

	seq   uint32 // own destination sequence number
	reqID uint64 // route-request counter

	netDiameter int
}

// rreq is the route-request payload.
type rreq struct {
	Origin    netstack.NodeID
	OriginSeq uint32
	ReqID     uint64
	Target    netstack.NodeID
	TargetSeq uint32
	HasTSeq   bool
}

// rrep is the route-reply payload.
type rrep struct {
	Origin    netstack.NodeID
	Target    netstack.NodeID
	TargetSeq uint32
	HopsToDst int
}

// rerr is the route-error payload: destinations now unreachable through
// the sender.
type rerr struct {
	Unreachable []netstack.NodeID
}

// New returns an AODV router factory.
func New(opts ...Option) netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{
			TableRouter: routing.TableRouter{Routes: routing.NewTable()},
			dup:         routing.NewDupCache(15),
			netDiameter: routing.DefaultTTL,
		}
		for _, o := range opts {
			o(r)
		}
		r.Init(r, 1)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "AODV" }

// Route implements routing.Reactive: a new data packet taking the route
// refreshes it.
func (r *Router) Route(dst netstack.NodeID, use bool) (*routing.Route, bool) {
	rt, ok := r.Routes.Lookup(dst, r.API.Now())
	if exp := r.API.Now() + routeLifetime; ok && use && exp > rt.Expiry {
		rt.Expiry = exp
	}
	return rt, ok
}

// Request implements routing.Reactive: one RREQ flood.
func (r *Router) Request(dst netstack.NodeID) bool {
	r.seq++
	r.reqID++
	var tseq uint32
	hasTSeq := false
	if rt, ok := r.Routes.Get(dst); ok {
		tseq = rt.Seq
		hasTSeq = true
	}
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREQ, Proto: r.Name(),
		Src: r.API.Self(), Dst: netstack.Broadcast, TTL: r.netDiameter,
		Size: 48, Created: r.API.Now(),
		Payload: rreq{
			Origin: r.API.Self(), OriginSeq: r.seq, ReqID: r.reqID,
			Target: dst, TargetSeq: tseq, HasTSeq: hasTSeq,
		},
	}
	r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: r.reqID}, r.API.Now())
	r.API.Send(netstack.Broadcast, pkt)
	return true
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		r.handleRREQ(pkt)
	case netstack.KindRREP:
		r.handleRREP(pkt)
	case netstack.KindRERR:
		r.handleRERR(pkt)
	case netstack.KindData:
		r.handleData(pkt)
	}
}

func (r *Router) handleRREQ(pkt *netstack.Packet) {
	req, ok := pkt.Payload.(rreq)
	if !ok || req.Origin == r.API.Self() {
		return
	}
	now := r.API.Now()
	// Reverse route to the origin through the previous hop.
	r.mergeRoute(routing.Route{
		Dst: req.Origin, NextHop: pkt.From, Hops: pkt.Hops,
		Seq: req.OriginSeq, Expiry: now + routeLifetime, Valid: true,
	})
	if r.dup.Seen(routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, now) {
		return
	}
	// Can we answer? Destination itself, or fresh-enough cached route.
	if req.Target == r.API.Self() {
		if routing.SeqNewer(req.TargetSeq, r.seq) {
			r.seq = req.TargetSeq
		}
		r.seq++
		r.sendRREP(req.Origin, req.Target, r.seq, 0)
		return
	}
	if rt, okRt := r.Routes.Lookup(req.Target, now); okRt && req.HasTSeq && routing.SeqNewer(rt.Seq+1, req.TargetSeq) {
		r.sendRREP(req.Origin, req.Target, rt.Seq, rt.Hops)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	r.API.Send(netstack.Broadcast, pkt)
}

// sendRREP unicasts a reply toward origin along the reverse route.
func (r *Router) sendRREP(origin, target netstack.NodeID, targetSeq uint32, hopsToDst int) {
	rt, ok := r.Routes.Lookup(origin, r.API.Now())
	if !ok {
		return
	}
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREP, Proto: r.Name(),
		Src: r.API.Self(), Dst: origin, TTL: r.netDiameter, Size: 44,
		Created: r.API.Now(),
		Payload: rrep{Origin: origin, Target: target, TargetSeq: targetSeq, HopsToDst: hopsToDst},
	}
	r.API.Send(rt.NextHop, pkt)
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(rrep)
	if !ok {
		return
	}
	now := r.API.Now()
	// Forward route to the target through the previous hop.
	r.mergeRoute(routing.Route{
		Dst: rep.Target, NextHop: pkt.From, Hops: rep.HopsToDst + pkt.Hops,
		Seq: rep.TargetSeq, Expiry: now + routeLifetime, Valid: true,
	})
	if rep.Origin == r.API.Self() {
		r.Resolve(rep.Target)
		return
	}
	// Relay toward the origin along the reverse route.
	rt, okRt := r.Routes.Lookup(rep.Origin, now)
	if !okRt {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	// Payload hop count must grow as the RREP travels; copy-on-write.
	cp := rep
	cp.HopsToDst = rep.HopsToDst
	pkt.Payload = cp
	r.API.Send(rt.NextHop, pkt)
}

func (r *Router) handleRERR(pkt *netstack.Packet) {
	er, ok := pkt.Payload.(rerr)
	if !ok {
		return
	}
	var cascade []netstack.NodeID
	for _, dst := range er.Unreachable {
		if rt, okRt := r.Routes.Get(dst); okRt && rt.Valid && rt.NextHop == pkt.From {
			rt.Valid = false
			cascade = append(cascade, dst)
		}
	}
	if len(cascade) > 0 {
		r.API.Metrics().RouteBreaks += len(cascade)
		r.broadcastRERR(cascade)
	}
}

func (r *Router) handleData(pkt *netstack.Packet) {
	if pkt.Dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	if rt, ok := r.Route(pkt.Dst, true); ok {
		r.SendVia(pkt, rt)
		return
	}
	// No route at an intermediate node: RFC behaviour is to RERR.
	r.API.Drop(pkt)
	r.broadcastRERR([]netstack.NodeID{pkt.Dst})
}

func (r *Router) broadcastRERR(unreachable []netstack.NodeID) {
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRERR, Proto: r.Name(),
		Src: r.API.Self(), Dst: netstack.Broadcast, TTL: 1, Size: 20 + 4*len(unreachable),
		Created: r.API.Now(),
		Payload: rerr{Unreachable: unreachable},
	}
	r.API.Send(netstack.Broadcast, pkt)
}

// OnNeighborExpired implements netstack.Router: losing a neighbor breaks
// every route through it, and the break is reported by RERR. A failed
// unicast lands here too, through TableRouter.OnSendFailed (RFC 3561
// §6.11).
func (r *Router) OnNeighborExpired(id netstack.NodeID) {
	broken := r.Routes.InvalidateVia(id)
	if len(broken) == 0 {
		return
	}
	r.API.Metrics().RouteBreaks += len(broken)
	r.broadcastRERR(broken)
}

// mergeRoute applies the AODV update rule: fresher sequence number wins;
// equal sequence with fewer hops wins.
func (r *Router) mergeRoute(nr routing.Route) {
	cur, ok := r.Routes.Get(nr.Dst)
	if ok && cur.Valid {
		if !routing.SeqNewer(nr.Seq, cur.Seq) && !(nr.Seq == cur.Seq && nr.Hops < cur.Hops) {
			// keep current, but refresh expiry on confirmation via same hop
			if cur.NextHop == nr.NextHop && nr.Expiry > cur.Expiry {
				cur.Expiry = nr.Expiry
			}
			return
		}
	}
	r.Routes.Upsert(nr)
}
