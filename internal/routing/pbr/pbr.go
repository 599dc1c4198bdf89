// Package pbr implements Prediction-Based Routing (Namboodiri & Gao,
// marked PBR in the survey's mobility category, Sec. IV-B): route
// discovery carries the predicted lifetime of the path — the minimum of
// the per-link lifetimes solved from Eqn (4) — the destination selects the
// longest-lived candidate among the RREQs it collects, and the source
// preemptively rebuilds the route shortly before the predicted expiry, so
// data keeps flowing across what would otherwise be a visible break.
package pbr

import (
	"math"

	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

const (
	// window is how long the destination collects candidate RREQs before
	// answering, in seconds.
	window = 0.25
	// rebuildMargin is how many seconds before predicted route expiry the
	// source re-discovers.
	rebuildMargin = 1
)

// Router is a per-node PBR instance.
type Router struct {
	routing.TableRouter
	dup   *routing.DupCache
	reqID uint64
	// destination-side candidate collection per (origin, reqID)
	collect map[routing.DupKey]*candidate
}

type candidate struct {
	bestLifetime float64
	bestFrom     netstack.NodeID
	hops         int
	armed        bool
}

// rreq carries the accumulated path lifetime.
type rreq struct {
	Origin   netstack.NodeID
	ReqID    uint64
	Target   netstack.NodeID
	Lifetime float64 // min link lifetime so far
}

// rrep returns the selected path lifetime to the origin.
type rrep struct {
	Origin   netstack.NodeID
	Target   netstack.NodeID
	Lifetime float64
	Hops     int
}

// New returns a PBR router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{
			TableRouter: routing.TableRouter{Routes: routing.NewTable()},
			dup:         routing.NewDupCache(15),
			collect:     make(map[routing.DupKey]*candidate),
		}
		r.Init(r, 1)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "PBR" }

// Request implements routing.Reactive: one RREQ flood.
func (r *Router) Request(dst netstack.NodeID) bool {
	r.reqID++
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREQ, Proto: r.Name(),
		Src: r.API.Self(), Dst: netstack.Broadcast, TTL: routing.DefaultTTL,
		Size: 52, Created: r.API.Now(),
		Payload: rreq{Origin: r.API.Self(), ReqID: r.reqID, Target: dst, Lifetime: link.Forever},
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
	// Fold in the lifetime of the link we just traversed (From → self),
	// as predicted by the reliability plane (absent neighbor = dead link).
	lifeFrom := 0.0
	if ls, okLs := r.API.LinkState(pkt.From); okLs {
		lifeFrom = ls.Lifetime
	}
	lt := routing.MinLifetime(req.Lifetime, lifeFrom)
	// Reverse route to origin, annotated with the predicted lifetime.
	r.Routes.MergeReverse(routing.Route{
		Dst: req.Origin, NextHop: pkt.From, Hops: pkt.Hops,
		Expiry: r.expiryFrom(now, lt), Valid: true, Lifetime: lt,
	})
	if req.Target == r.API.Self() {
		// Collect candidates for a window, then answer the best one.
		key := routing.DupKey{Origin: req.Origin, Seq: req.ReqID}
		c, okC := r.collect[key]
		if !okC {
			c = &candidate{bestLifetime: -1}
			r.collect[key] = c
		}
		if lt > c.bestLifetime {
			c.bestLifetime = lt
			c.bestFrom = pkt.From
			c.hops = pkt.Hops
		}
		if !c.armed {
			c.armed = true
			origin := req.Origin
			r.API.After(window, func() { r.answer(key, origin) })
		}
		return
	}
	// Intermediate: forward the first copy, and also strictly better ones
	// (bounded by the dup cache granularity: one improvement pass).
	key := routing.DupKey{Origin: req.Origin, Seq: req.ReqID}
	if r.dup.Seen(key, now) {
		return
	}
	cp := req
	cp.Lifetime = lt
	pkt.Payload = cp
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	r.API.Send(netstack.Broadcast, pkt)
}

// answer sends the RREP for the best collected candidate.
func (r *Router) answer(key routing.DupKey, origin netstack.NodeID) {
	c, ok := r.collect[key]
	if !ok || c.bestLifetime < 0 {
		return
	}
	delete(r.collect, key)
	// route back through the best previous hop
	r.Routes.Upsert(routing.Route{
		Dst: origin, NextHop: c.bestFrom, Hops: c.hops,
		Expiry: r.expiryFrom(r.API.Now(), c.bestLifetime), Valid: true, Lifetime: c.bestLifetime,
	})
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREP, Proto: r.Name(),
		Src: r.API.Self(), Dst: origin, TTL: routing.DefaultTTL, Size: 48,
		Created: r.API.Now(),
		Payload: rrep{Origin: origin, Target: r.API.Self(), Lifetime: c.bestLifetime, Hops: 0},
	}
	r.API.Send(c.bestFrom, pkt)
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(rrep)
	if !ok {
		return
	}
	now := r.API.Now()
	r.Routes.Upsert(routing.Route{
		Dst: rep.Target, NextHop: pkt.From, Hops: rep.Hops + pkt.Hops,
		Expiry: r.expiryFrom(now, rep.Lifetime), Valid: true, Lifetime: rep.Lifetime,
	})
	if rep.Origin == r.API.Self() {
		r.API.Metrics().OnPathLifetime(capLife(rep.Lifetime))
		r.Resolve(rep.Target)
		// Preemptive rebuild before predicted expiry: the PBR idea.
		if rep.Lifetime != link.Forever {
			lead := math.Max(rep.Lifetime-rebuildMargin, 0.1)
			target := rep.Target
			r.API.After(lead, func() {
				if r.pendingOrActive(target) {
					r.API.Metrics().RouteRepairs++
					r.Start(target)
				}
			})
		}
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

// pendingOrActive reports whether the route to target is still in use
// (valid route entry or queued data), gating preemptive rebuilds.
func (r *Router) pendingOrActive(target netstack.NodeID) bool {
	if r.Waiting(target) {
		return true
	}
	_, ok := r.Routes.Lookup(target, r.API.Now())
	return ok
}

// expiryFrom converts a predicted lifetime into an absolute route expiry,
// capped to keep Forever representable.
func (r *Router) expiryFrom(now, lifetime float64) float64 {
	return now + capLife(lifetime)
}

func capLife(lifetime float64) float64 {
	const maxHold = 120
	if lifetime > maxHold {
		return maxHold
	}
	return lifetime
}
