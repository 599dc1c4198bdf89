// Package gvgrid implements the QoS grid routing of Sun et al. (survey
// Sec. VII-B, marked GVGrid): the plane is partitioned into square grid
// cells; a route is the straight cell sequence from source to destination;
// under the protocol's assumptions — equally spaced relays and normally
// distributed vehicle speeds — each grid transition gets a link-lifetime
// survival probability from the probability model, and forwarding prefers
// the neighbor in the next cell whose predicted link survives the required
// delay bound.
package gvgrid

import (
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/routing"
)

// Option configures the router factory.
type Option func(*Router)

// WithCellSize sets the grid cell edge in meters (default 100).
func WithCellSize(m float64) Option {
	return func(r *Router) { r.cellSize = m }
}

// WithSpeedStd sets the σ of the assumed normal relative-speed model in
// m/s (default 6).
func WithSpeedStd(s float64) Option {
	return func(r *Router) { r.speedStd = s }
}

// WithDelayBound sets the QoS delay bound in seconds a selected link must
// survive (default 2).
func WithDelayBound(d float64) Option {
	return func(r *Router) { r.delayBound = d }
}

// Router is a per-node GVGrid instance.
type Router struct {
	netstack.Base
	cellSize   float64
	speedStd   float64
	delayBound float64
	carried    []*carriedPacket
	started    bool
}

type carriedPacket struct {
	pkt   *netstack.Packet
	since float64
}

// New returns a GVGrid router factory.
func New(opts ...Option) netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{cellSize: 100, speedStd: 6, delayBound: 2}
		for _, o := range opts {
			o(r)
		}
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "GVGrid" }

// Attach implements netstack.Router.
func (r *Router) Attach(api *netstack.API) {
	r.Base.Attach(api)
	if r.started {
		return
	}
	r.started = true
	var sweep func()
	sweep = func() {
		r.retryCarried()
		r.API.After(0.5, sweep)
	}
	api.After(0.5+api.Rand().Float64()*0.1, sweep)
}

// linkReliability returns P(link to the beaconed neighbor survives the
// delay bound) under the protocol's probability model: relative speed
// ~ N(observed Δv, σ²), gap and range from the reliability plane's link
// state. The model is GVGrid's own sign convention (self behind the
// neighbor along the axis toward it), so it stays local rather than using
// linkstate.Survival.
func (r *Router) linkReliability(ls netstack.LinkState) float64 {
	axis := ls.Pos.Sub(r.API.Pos())
	gap := axis.Len()
	relSpeed := geom.Project(r.API.Vel().Sub(ls.Vel), axis)
	model := prob.LinkDurationModel{
		RelSpeed: prob.Normal{Mu: relSpeed, Sigma: r.speedStd},
		Gap:      -gap, // self behind neighbor along the axis toward it
		Range:    r.API.RangeEstimate(),
	}
	return model.SurvivalProb(r.delayBound)
}

// Originate implements netstack.Router.
func (r *Router) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(r.API, r.Name(), dst, size)
	if dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	r.route(pkt)
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
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	r.route(pkt)
}

// cellOf returns the integer grid cell of p.
func (r *Router) cellOf(p geom.Vec2) (int, int) {
	return int(math.Floor(p.X / r.cellSize)), int(math.Floor(p.Y / r.cellSize))
}

// route forwards to the most reliable neighbor that advances the grid-cell
// walk toward the destination.
func (r *Router) route(pkt *netstack.Packet) {
	if r.API.HasNeighbor(pkt.Dst) {
		r.API.Send(pkt.Dst, pkt)
		return
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		r.API.Drop(pkt)
		return
	}
	cx, cy := r.cellOf(r.API.Pos())
	dx, dy := r.cellOf(dstPos)
	cellDist := func(x, y int) int {
		ax, ay := x-dx, y-dy
		if ax < 0 {
			ax = -ax
		}
		if ay < 0 {
			ay = -ay
		}
		if ax > ay {
			return ax
		}
		return ay
	}
	myCellD := cellDist(cx, cy)
	best := netstack.Broadcast
	bestScore := -1.0
	// raw snapshot: linkReliability runs GVGrid's own model over the
	// observed fields, so paying the estimator derivation per packet
	// would buy nothing
	for _, nb := range r.API.Neighbors() {
		nx, ny := r.cellOf(nb.Pos)
		cd := cellDist(nx, ny)
		if cd >= myCellD {
			continue // must advance the cell walk
		}
		rel := r.linkReliability(nb)
		// prefer fewer remaining cells, then reliability
		score := float64(myCellD-cd)*10 + rel
		if score > bestScore {
			bestScore = score
			best = nb.ID
		}
	}
	if best != netstack.Broadcast {
		r.API.Send(best, pkt)
		return
	}
	// route repair from the break point: carry briefly, then retry
	r.carried = append(r.carried, &carriedPacket{pkt: pkt, since: r.API.Now()})
}

// OnSendFailed implements netstack.Router: the reliability estimate missed
// — blacklist the neighbor and repair from the break point.
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
	r.route(pkt)
}

func (r *Router) retryCarried() {
	if len(r.carried) == 0 {
		return
	}
	now := r.API.Now()
	keep := r.carried[:0]
	for _, c := range r.carried {
		if now-c.since > 8 {
			r.API.Drop(c.pkt)
			continue
		}
		if r.tryOnce(c.pkt) {
			continue
		}
		keep = append(keep, c)
	}
	r.carried = keep
}

func (r *Router) tryOnce(pkt *netstack.Packet) bool {
	if r.API.HasNeighbor(pkt.Dst) {
		r.API.Send(pkt.Dst, pkt)
		return true
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		return false
	}
	selfD := r.API.Pos().Dist(dstPos)
	for _, nb := range r.API.Neighbors() {
		if nb.Pos.Dist(dstPos) < selfD {
			r.API.Send(nb.ID, pkt)
			return true
		}
	}
	return false
}
