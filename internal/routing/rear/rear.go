// Package rear implements the reliable alarm-message routing of Jiang et
// al. (survey Sec. VII-B, marked REAR): the receipt probability of a
// message at each neighbor is estimated "from the received signal
// strengths" using the wireless loss model (path loss plus shadowing/
// diffraction loss), and "the path with highest receipt probability is
// selected for routing". Next hops are chosen among progress-making
// neighbors by maximum estimated receipt probability rather than maximum
// progress, trading hop count for per-hop reliability.
package rear

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prob"
	"github.com/vanetlab/relroute/internal/routing"
)

// Option configures the router factory.
type Option func(*Router)

// WithReceiptModel overrides the signal model used to map RSSI to receipt
// probability. Without it the router consumes the reliability plane's
// estimate (API.LinkState.ReceiptProb), which under the default composite
// estimator is the same prob.DefaultReceiptModel mapping REAR always used.
func WithReceiptModel(m prob.ReceiptModel) Option {
	return func(r *Router) { r.model = &m }
}

// WithMinReceipt sets the minimum acceptable per-hop receipt probability
// (default 0.2); neighbors below it are not considered.
func WithMinReceipt(p float64) Option {
	return func(r *Router) { r.minReceipt = p }
}

// Router is a per-node REAR instance.
type Router struct {
	netstack.Base
	model      *prob.ReceiptModel // nil: use the reliability plane's estimate
	minReceipt float64
	carried    []*carriedPacket
	started    bool
}

type carriedPacket struct {
	pkt   *netstack.Packet
	since float64
}

// New returns a REAR router factory.
func New(opts ...Option) netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{minReceipt: 0.2}
		for _, o := range opts {
			o(r)
		}
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "REAR" }

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

// receiptProb estimates the probability that a frame sent to the neighbor
// is received. ls must come from API.LinkState/LinkStates: by default the
// reliability plane's prediction is consumed directly; a router-local
// model (WithReceiptModel) overrides it from the same smoothed RSSI.
func (r *Router) receiptProb(ls netstack.LinkState) float64 {
	if r.model != nil {
		return r.model.ProbFromRSSI(ls.MeanRSSI)
	}
	return ls.ReceiptProb
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

// route picks the progress-making neighbor with the highest receipt
// probability; with no candidate it carries briefly (alarm messages must
// survive short voids).
func (r *Router) route(pkt *netstack.Packet) {
	if ls, ok := r.API.LinkState(pkt.Dst); ok && r.receiptProb(ls) >= r.minReceipt {
		r.API.Send(pkt.Dst, pkt)
		return
	}
	dstPos, _, ok := r.API.LookupPosition(pkt.Dst)
	if !ok {
		r.API.Drop(pkt)
		return
	}
	selfD := r.API.Pos().Dist(dstPos)
	best := netstack.Broadcast
	bestP := -1.0
	for _, nb := range r.API.LinkStates() {
		if nb.Pos.Dist(dstPos) >= selfD {
			continue // no progress
		}
		p := r.receiptProb(nb)
		if p < r.minReceipt {
			continue
		}
		if p > bestP {
			bestP = p
			best = nb.ID
		}
	}
	if best != netstack.Broadcast {
		r.API.Send(best, pkt)
		return
	}
	r.carried = append(r.carried, &carriedPacket{pkt: pkt, since: r.API.Now()})
}

// OnSendFailed implements netstack.Router: the RSSI estimate was too
// optimistic — blacklist and re-route.
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
		if now-c.since > 6 {
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
	for _, nb := range r.API.LinkStates() {
		if nb.Pos.Dist(dstPos) < selfD && r.receiptProb(nb) >= r.minReceipt {
			r.API.Send(nb.ID, pkt)
			return true
		}
	}
	return false
}
