// Package taleb implements the stable routing protocol of Taleb et al.
// (survey Sec. IV-B): vehicles are grouped into four classes by their
// velocity vector, links between same-group vehicles are considered
// long-lived and preferred during RREQ dissemination, the destination
// picks the most stable arriving path, and — per the survey — "a new route
// discovery is always initiated prior [to the] duration of the routing
// path, i.e. the shortest link duration".
package taleb

import (
	"math"

	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

const (
	// crossDelay is the extra rebroadcast delay, in seconds, imposed on
	// different-group relays, biasing discovery toward same-group paths
	// without partitioning the network.
	crossDelay = 0.08
	// window is how long the destination collects candidate RREQs before
	// answering, in seconds.
	window = 0.3
)

// Router is a per-node Taleb instance.
type Router struct {
	routing.TableRouter
	dup     *routing.DupCache
	reqID   uint64
	collect map[routing.DupKey]*candidate
}

type candidate struct {
	bestScore float64
	bestLife  float64
	bestFrom  netstack.NodeID
	hops      int
	armed     bool
}

// rreq carries the origin's velocity group and accumulated path stability.
type rreq struct {
	Origin      netstack.NodeID
	ReqID       uint64
	Target      netstack.NodeID
	OriginGroup int
	MinLife     float64 // shortest link duration on the path so far
	SameGroup   int     // count of same-group links traversed
	Links       int
}

// rrep returns the selection to the origin.
type rrep struct {
	Origin  netstack.NodeID
	Target  netstack.NodeID
	MinLife float64
	Hops    int
}

// New returns a Taleb router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{
			TableRouter: routing.TableRouter{Routes: routing.NewTable()},
			dup:         routing.NewDupCache(15),
			collect:     make(map[routing.DupKey]*candidate),
		}
		r.Init(r, 1.2)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Taleb" }

// group returns this node's velocity group.
func (r *Router) group() int { return link.HeadingGroup(r.API.Vel()) }

// Request implements routing.Reactive: one RREQ flood.
func (r *Router) Request(dst netstack.NodeID) bool {
	r.reqID++
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREQ, Proto: r.Name(),
		Src: r.API.Self(), Dst: netstack.Broadcast, TTL: routing.DefaultTTL,
		Size: 56, Created: r.API.Now(),
		Payload: rreq{
			Origin: r.API.Self(), ReqID: r.reqID, Target: dst,
			OriginGroup: r.group(), MinLife: link.Forever,
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
	// one reliability-plane read serves both the lifetime fold and the
	// velocity-group comparison of the previous hop
	lifeFrom := 0.0
	sameGroup := 0
	if ls, okLs := r.API.LinkState(pkt.From); okLs {
		lifeFrom = ls.Lifetime
		if link.HeadingGroup(ls.Vel) == r.group() {
			sameGroup = 1
		}
	}
	lt := routing.MinLifetime(req.MinLife, lifeFrom)
	r.Routes.MergeReverse(routing.Route{
		Dst: req.Origin, NextHop: pkt.From, Hops: pkt.Hops,
		Expiry: now + capLife(lt), Valid: true, Lifetime: lt,
	})
	if req.Target == r.API.Self() {
		key := routing.DupKey{Origin: req.Origin, Seq: req.ReqID}
		c, okC := r.collect[key]
		if !okC {
			c = &candidate{bestScore: -1}
			r.collect[key] = c
		}
		// Stability score: same-group fraction dominates, predicted
		// lifetime breaks ties (the protocol's velocity-vector heuristic).
		links := float64(req.Links + 1)
		score := float64(req.SameGroup+sameGroup)/links*1e6 + math.Min(capLife(lt), 1e5)
		if score > c.bestScore {
			c.bestScore = score
			c.bestLife = lt
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
	key := routing.DupKey{Origin: req.Origin, Seq: req.ReqID}
	if r.dup.Seen(key, now) {
		return
	}
	cp := req
	cp.MinLife = lt
	cp.SameGroup += sameGroup
	cp.Links++
	pkt.Payload = cp
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	// Same-group relays forward immediately; cross-group relays wait,
	// letting stable paths win the dup-suppression race downstream.
	if sameGroup == 1 {
		r.API.Send(netstack.Broadcast, pkt)
		return
	}
	fwd := pkt
	r.API.After(crossDelay, func() { r.API.Send(netstack.Broadcast, fwd) })
}

func (r *Router) answer(key routing.DupKey, origin netstack.NodeID) {
	c, ok := r.collect[key]
	if !ok || c.bestScore < 0 {
		return
	}
	delete(r.collect, key)
	r.Routes.Upsert(routing.Route{
		Dst: origin, NextHop: c.bestFrom, Hops: c.hops,
		Expiry: r.API.Now() + capLife(c.bestLife), Valid: true, Lifetime: c.bestLife,
	})
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREP, Proto: r.Name(),
		Src: r.API.Self(), Dst: origin, TTL: routing.DefaultTTL, Size: 44,
		Created: r.API.Now(),
		Payload: rrep{Origin: origin, Target: r.API.Self(), MinLife: c.bestLife},
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
		Expiry: now + capLife(rep.MinLife), Valid: true, Lifetime: rep.MinLife,
	})
	if rep.Origin == r.API.Self() {
		r.API.Metrics().OnPathLifetime(capLife(rep.MinLife))
		r.Resolve(rep.Target)
		// Re-discover prior to the shortest link duration elapsing.
		if rep.MinLife != link.Forever {
			r.RebuildAfter(math.Max(capLife(rep.MinLife)-0.8, 0.1), rep.Target)
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

func capLife(lifetime float64) float64 {
	const maxHold = 120
	if lifetime > maxHold {
		return maxHold
	}
	return lifetime
}
