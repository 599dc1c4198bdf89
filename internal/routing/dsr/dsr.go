// Package dsr implements Dynamic Source Routing (Johnson et al.), the
// source-routed member of the survey's connectivity category: RREQs flood
// outward accumulating the traversed node list, the destination returns
// the complete route in an RREP, and data packets carry their full route
// in the header. Route caches answer later discoveries, and RERRs truncate
// caches when a listed link dies.
package dsr

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Router is a per-node DSR instance.
type Router struct {
	routing.Discovery[[]netstack.NodeID]
	cache map[netstack.NodeID][]netstack.NodeID // dst → full path self→...→dst
	dup   *routing.DupCache
	reqID uint64
}

// rreq accumulates the traversed route.
type rreq struct {
	Origin netstack.NodeID
	ReqID  uint64
	Target netstack.NodeID
	Path   []netstack.NodeID // nodes traversed so far, origin first
}

// rrep carries the complete discovered route.
type rrep struct {
	Origin netstack.NodeID
	Target netstack.NodeID
	Path   []netstack.NodeID // origin ... target inclusive
}

// rerr names the broken link.
type rerr struct {
	From, To netstack.NodeID
	Origin   netstack.NodeID
}

// srcHeader is the source-route header on data packets.
type srcHeader struct {
	Path []netstack.NodeID // origin ... destination inclusive
	Next int               // index of the next hop in Path
}

// New returns a DSR router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{
			cache: make(map[netstack.NodeID][]netstack.NodeID),
			dup:   routing.NewDupCache(15),
		}
		r.Init(r, 1)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "DSR" }

// Route implements routing.Reactive: the cached source route to dst.
func (r *Router) Route(dst netstack.NodeID, _ bool) ([]netstack.NodeID, bool) {
	path, ok := r.cache[dst]
	return path, ok && len(path) >= 2
}

// SendVia implements routing.Reactive: the packet carries the full source
// route in its header.
func (r *Router) SendVia(pkt *netstack.Packet, path []netstack.NodeID) {
	hdr := srcHeader{Path: append([]netstack.NodeID(nil), path...), Next: 1}
	pkt.Payload = hdr
	pkt.Size += 4 * len(path) // source route inflates the header
	r.API.Send(path[1], pkt)
}

// Request implements routing.Reactive: one RREQ flood.
func (r *Router) Request(dst netstack.NodeID) bool {
	r.reqID++
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREQ, Proto: r.Name(),
		Src: r.API.Self(), Dst: netstack.Broadcast, TTL: routing.DefaultTTL,
		Size: 40, Created: r.API.Now(),
		Payload: rreq{
			Origin: r.API.Self(), ReqID: r.reqID, Target: dst,
			Path: []netstack.NodeID{r.API.Self()},
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
	if contains(req.Path, r.API.Self()) {
		return // loop
	}
	if r.dup.Seen(routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, r.API.Now()) {
		return
	}
	// copy-on-write path extension
	path := make([]netstack.NodeID, 0, len(req.Path)+1)
	path = append(path, req.Path...)
	path = append(path, r.API.Self())
	if req.Target == r.API.Self() {
		// cache the reverse route and reply with the full path
		r.cache[req.Origin] = reverse(path)
		rep := rrep{Origin: req.Origin, Target: req.Target, Path: path}
		out := &netstack.Packet{
			UID: r.API.NewUID(), Kind: netstack.KindRREP, Proto: r.Name(),
			Src: r.API.Self(), Dst: req.Origin, TTL: routing.DefaultTTL,
			Size: 24 + 4*len(path), Created: r.API.Now(), Payload: rep,
		}
		// unicast back along the accumulated path
		r.API.Send(path[len(path)-2], out)
		return
	}
	cp := req
	cp.Path = path
	pkt.Payload = cp
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	pkt.Size += 4
	r.API.Send(netstack.Broadcast, pkt)
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(rrep)
	if !ok {
		return
	}
	self := r.API.Self()
	idx := indexOf(rep.Path, self)
	if idx < 0 {
		return
	}
	// learn the downstream sub-path
	r.cache[rep.Target] = append([]netstack.NodeID(nil), rep.Path[idx:]...)
	if self == rep.Origin {
		r.Resolve(rep.Target)
		return
	}
	if idx == 0 {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	r.API.Send(rep.Path[idx-1], pkt)
}

func (r *Router) handleRERR(pkt *netstack.Packet) {
	er, ok := pkt.Payload.(rerr)
	if !ok {
		return
	}
	r.truncateCaches(er.From, er.To)
}

// truncateCaches removes every cached path that uses the dead link.
func (r *Router) truncateCaches(from, to netstack.NodeID) {
	for dst, path := range r.cache {
		for i := 0; i+1 < len(path); i++ {
			if path[i] == from && path[i+1] == to {
				delete(r.cache, dst)
				break
			}
		}
	}
}

func (r *Router) handleData(pkt *netstack.Packet) {
	if pkt.Dst == r.API.Self() {
		r.API.Deliver(pkt)
		return
	}
	hdr, ok := pkt.Payload.(srcHeader)
	if !ok {
		r.API.Drop(pkt)
		return
	}
	next := hdr.Next + 1
	if next >= len(hdr.Path) {
		r.API.Drop(pkt)
		return
	}
	nextHop := hdr.Path[next]
	// salvage check: is the next hop still a neighbor?
	if !r.API.HasNeighbor(nextHop) {
		r.API.Metrics().RouteBreaks++
		r.API.Drop(pkt)
		r.reportBreak(hdr.Path[0], r.API.Self(), nextHop)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		return
	}
	cp := hdr
	cp.Next = next
	pkt.Payload = cp
	r.API.Send(nextHop, pkt)
}

// reportBreak unicasts an RERR toward the origin and truncates own caches.
func (r *Router) reportBreak(origin, from, to netstack.NodeID) {
	r.truncateCaches(from, to)
	path, ok := r.cache[origin]
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRERR, Proto: r.Name(),
		Src: r.API.Self(), Dst: origin, TTL: routing.DefaultTTL, Size: 28,
		Created: r.API.Now(),
		Payload: rerr{From: from, To: to, Origin: origin},
	}
	if ok && len(path) >= 2 {
		r.API.Send(path[1], pkt)
		return
	}
	// fall back to a 1-hop broadcast so at least upstream neighbors learn
	pkt.TTL = 1
	r.API.Send(netstack.Broadcast, pkt)
}

// OnNeighborExpired implements netstack.Router.
func (r *Router) OnNeighborExpired(id netstack.NodeID) {
	r.truncateCaches(r.API.Self(), id)
}

// OnSendFailed implements netstack.Router: truncate caches over the dead
// link and send the RERR the in-band salvage check would have sent.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	if hdr, ok := pkt.Payload.(srcHeader); ok && pkt.Data && len(hdr.Path) > 0 {
		r.API.Metrics().RouteBreaks++
		r.reportBreak(hdr.Path[0], r.API.Self(), to)
	} else {
		r.truncateCaches(r.API.Self(), to)
	}
	if pkt.Data {
		r.API.Drop(pkt)
	}
}

// CacheLen exposes the cache size for tests.
func (r *Router) CacheLen() int { return len(r.cache) }

func contains(s []netstack.NodeID, id netstack.NodeID) bool {
	return indexOf(s, id) >= 0
}

func indexOf(s []netstack.NodeID, id netstack.NodeID) int {
	for i, v := range s {
		if v == id {
			return i
		}
	}
	return -1
}

func reverse(s []netstack.NodeID) []netstack.NodeID {
	out := make([]netstack.NodeID, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}
