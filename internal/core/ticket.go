package core

import (
	"sort"

	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// TicketOption configures the ticket router factory.
type TicketOption func(*TicketRouter)

// WithTickets sets the probe ticket budget L (default 3). One ticket
// explores one candidate path; the budget is split divide-and-conquer at
// every hop.
func WithTickets(l int) TicketOption {
	return func(r *TicketRouter) { r.tickets = l }
}

// WithMetric selects the stability metric (default MetricMeanDuration —
// the TBP-SS configuration).
func WithMetric(m Metric) TicketOption {
	return func(r *TicketRouter) { r.metric = m }
}

// WithStabilityThreshold sets the minimum acceptable link stability in
// seconds (default 3); probes never traverse weaker links — the "SS"
// stability constraint.
func WithStabilityThreshold(s float64) TicketOption {
	return func(r *TicketRouter) { r.threshold = s }
}

// WithStabilityParams overrides the probability-model parameters.
func WithStabilityParams(p StabilityParams) TicketOption {
	return func(r *TicketRouter) { r.params = p }
}

// WithScorer replaces the link-stability estimator with a custom function
// (used by the hybrid probability+mobility router the paper's conclusion
// proposes). The scorer must return seconds of predicted usable lifetime;
// the threshold and path-min composition still apply.
func WithScorer(f func(api *netstack.API, nb netstack.Neighbor) float64) TicketOption {
	return func(r *TicketRouter) { r.scorer = f }
}

const (
	// probeWindow is how long the destination collects probes before
	// answering with the best path, in seconds.
	probeWindow = 0.3
	// rebuildMargin is how long before the predicted path expiry the
	// source re-probes, in seconds.
	rebuildMargin = 1
)

// TicketRouter is the Yan/TBP-SS probability-model-based router: selective
// ticket probing on a link-stability metric, source-routed data, and
// stability-driven preemptive maintenance.
type TicketRouter struct {
	routing.Discovery[*activePath]
	tickets   int
	metric    Metric
	threshold float64
	params    StabilityParams
	scorer    func(api *netstack.API, nb netstack.Neighbor) float64

	reqID uint64
	// source-side active paths: dst → source route + predicted stability
	paths map[netstack.NodeID]*activePath
	// destination-side probe collection
	collect map[routing.DupKey]*probeSet
}

type activePath struct {
	hops      []netstack.NodeID // self ... dst inclusive
	stability float64
	built     float64
}

type probeSet struct {
	bestStability float64
	bestPath      []netstack.NodeID
	armed         bool
}

// probe is the ticket-carrying control payload.
type probe struct {
	Origin    netstack.NodeID
	ReqID     uint64
	Target    netstack.NodeID
	Tickets   int
	Path      []netstack.NodeID // origin ... current holder inclusive
	Stability float64           // min link stability along Path
}

// reply returns the selected path.
type reply struct {
	Origin    netstack.NodeID
	Target    netstack.NodeID
	Path      []netstack.NodeID // origin ... target inclusive
	Stability float64
}

// srcHeader is the source-route header for data.
type srcHeader struct {
	Path []netstack.NodeID
	Next int
}

// NewTicketRouter returns a TBP-SS router factory.
func NewTicketRouter(opts ...TicketOption) netstack.RouterFactory {
	return func() netstack.Router {
		r := &TicketRouter{
			tickets:   3,
			metric:    MetricMeanDuration,
			threshold: 3,
			paths:     make(map[netstack.NodeID]*activePath),
			collect:   make(map[routing.DupKey]*probeSet),
		}
		for _, o := range opts {
			o(r)
		}
		r.Init(r, 1)
		return r
	}
}

// Name implements netstack.Router.
func (r *TicketRouter) Name() string {
	if r.metric == MetricExpectedDuration {
		return "Yan-TBP"
	}
	return "TBP-SS"
}

// Route implements routing.Reactive: the probed source route to dst.
func (r *TicketRouter) Route(dst netstack.NodeID, _ bool) (*activePath, bool) {
	ap, ok := r.paths[dst]
	return ap, ok && len(ap.hops) >= 2
}

// SendVia implements routing.Reactive: the packet carries the path as its
// source route.
func (r *TicketRouter) SendVia(pkt *netstack.Packet, ap *activePath) {
	pkt.Payload = srcHeader{Path: append([]netstack.NodeID(nil), ap.hops...), Next: 1}
	pkt.Size += 4 * len(ap.hops)
	r.API.Send(ap.hops[1], pkt)
}

// Request implements routing.Reactive with the source's ticket split:
// rank neighbors by link stability (filtered by the threshold and, when
// the destination position is known, by forward progress), then
// distribute the L tickets over the best candidates. With no admissible
// neighbor no probe leaves and the discovery gives up.
func (r *TicketRouter) Request(dst netstack.NodeID) bool {
	r.reqID++
	cands := r.candidates(dst, []netstack.NodeID{r.API.Self()})
	if len(cands) == 0 {
		return false
	}
	split := splitTickets(r.tickets, len(cands))
	for i, c := range cands {
		if split[i] == 0 {
			continue
		}
		pl := probe{
			Origin: r.API.Self(), ReqID: r.reqID, Target: dst,
			Tickets:   split[i],
			Path:      []netstack.NodeID{r.API.Self()},
			Stability: c.stability,
		}
		pkt := &netstack.Packet{
			UID: r.API.NewUID(), Kind: netstack.KindProbe, Proto: r.Name(),
			Src: r.API.Self(), Dst: dst, TTL: routing.DefaultTTL,
			Size: 48 + 4*len(pl.Path), Created: r.API.Now(), Payload: pl,
		}
		r.API.Send(c.id, pkt)
	}
	return true
}

type candidate struct {
	id        netstack.NodeID
	stability float64
	progress  float64
}

// stability evaluates one reliability-plane link state with the
// configured metric or scorer.
func (r *TicketRouter) stability(ls netstack.LinkState) float64 {
	if r.scorer != nil {
		return r.scorer(r.API, ls)
	}
	return linkStateStability(r.API, r.metric, r.params, ls)
}

// candidates ranks admissible next hops for a probe: live neighbors not on
// the path, stability ≥ threshold, ordered by stability and progress.
func (r *TicketRouter) candidates(dst netstack.NodeID, path []netstack.NodeID) []candidate {
	dstPos, _, havePos := r.API.LookupPosition(dst)
	selfD := 0.0
	if havePos {
		selfD = r.API.Pos().Dist(dstPos)
	}
	var out []candidate
	for _, nb := range r.API.LinkStates() {
		if onPath(path, nb.ID) {
			continue
		}
		s := r.stability(nb)
		if s < r.threshold {
			continue
		}
		prog := 0.0
		if havePos {
			prog = selfD - nb.Pos.Dist(dstPos)
			if nb.ID != dst && prog <= 0 {
				continue // require forward progress when geography is known
			}
		}
		out = append(out, candidate{id: nb.ID, stability: s, progress: prog})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].stability != out[j].stability {
			return out[i].stability > out[j].stability
		}
		if out[i].progress != out[j].progress {
			return out[i].progress > out[j].progress
		}
		return out[i].id < out[j].id
	})
	return out
}

// splitTickets distributes l tickets over n ranked candidates: the best
// candidate gets the ceiling share, every funded candidate gets at least
// one, and no more candidates are funded than tickets exist.
func splitTickets(l, n int) []int {
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	if l <= 0 {
		return out
	}
	funded := n
	if l < n {
		funded = l
	}
	base := l / funded
	rem := l % funded
	for i := 0; i < funded; i++ {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// HandlePacket implements netstack.Router.
func (r *TicketRouter) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindProbe:
		r.handleProbe(pkt)
	case netstack.KindRREP:
		r.handleReply(pkt)
	case netstack.KindRERR:
		r.handleBreak(pkt)
	case netstack.KindData:
		r.handleData(pkt)
	}
}

func (r *TicketRouter) handleProbe(pkt *netstack.Packet) {
	pr, ok := pkt.Payload.(probe)
	if !ok || pr.Origin == r.API.Self() {
		return
	}
	// Fold in the stability of the link just traversed, as measured at
	// the receiving end (the survey's probing is per-link, both ends see
	// the beacons).
	inStab := pr.Stability
	if ls, okLs := r.API.LinkState(pkt.From); okLs {
		s := r.stability(ls)
		if s < inStab {
			inStab = s
		}
	}
	path := append(append([]netstack.NodeID(nil), pr.Path...), r.API.Self())
	if pr.Target == r.API.Self() {
		key := routing.DupKey{Origin: pr.Origin, Seq: pr.ReqID}
		set, okSet := r.collect[key]
		if !okSet {
			set = &probeSet{bestStability: -1}
			r.collect[key] = set
		}
		if inStab > set.bestStability {
			set.bestStability = inStab
			set.bestPath = path
		}
		if !set.armed {
			set.armed = true
			origin := pr.Origin
			r.API.After(probeWindow, func() { r.answer(key, origin) })
		}
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	cands := r.candidates(pr.Target, path)
	if len(cands) == 0 {
		return // ticket dies here
	}
	limit := pr.Tickets
	if limit > len(cands) {
		limit = len(cands)
	}
	split := splitTickets(pr.Tickets, limit)
	for i := 0; i < limit; i++ {
		if split[i] == 0 {
			continue
		}
		stab := inStab
		if cands[i].stability < stab {
			stab = cands[i].stability
		}
		cp := pr
		cp.Tickets = split[i]
		cp.Path = path
		cp.Stability = stab
		fwd := pkt.Clone()
		fwd.Payload = cp
		fwd.Size = 48 + 4*len(path)
		r.API.Send(cands[i].id, fwd)
	}
}

// answer returns the best probed path to the origin.
func (r *TicketRouter) answer(key routing.DupKey, origin netstack.NodeID) {
	set, ok := r.collect[key]
	if !ok || set.bestStability < 0 {
		return
	}
	delete(r.collect, key)
	path := set.bestPath
	if len(path) < 2 {
		return
	}
	rep := reply{Origin: origin, Target: r.API.Self(), Path: path, Stability: set.bestStability}
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRREP, Proto: r.Name(),
		Src: r.API.Self(), Dst: origin, TTL: routing.DefaultTTL,
		Size: 32 + 4*len(path), Created: r.API.Now(), Payload: rep,
	}
	r.API.Send(path[len(path)-2], pkt)
}

func (r *TicketRouter) handleReply(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(reply)
	if !ok {
		return
	}
	self := r.API.Self()
	idx := indexOf(rep.Path, self)
	if idx < 0 {
		return
	}
	if self == rep.Origin {
		stab := rep.Stability
		r.paths[rep.Target] = &activePath{
			hops: append([]netstack.NodeID(nil), rep.Path...), stability: stab,
			built: r.API.Now(),
		}
		r.API.Metrics().OnPathLifetime(capStability(stab))
		r.Resolve(rep.Target)
		// stability-driven preemptive rebuild
		if stab != link.Forever {
			lead := capStability(stab) - rebuildMargin
			if lead < 0.1 {
				lead = 0.1
			}
			target := rep.Target
			r.API.After(lead, func() {
				if _, okP := r.paths[target]; okP || r.Waiting(target) {
					delete(r.paths, target)
					r.API.Metrics().RouteRepairs++
					r.Start(target)
				}
			})
		}
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

// breakNotice reports a dead source route back to the origin.
type breakNotice struct {
	Origin netstack.NodeID
	Target netstack.NodeID
}

func (r *TicketRouter) handleBreak(pkt *netstack.Packet) {
	bn, ok := pkt.Payload.(breakNotice)
	if !ok || bn.Origin != r.API.Self() {
		return
	}
	if _, okP := r.paths[bn.Target]; okP {
		delete(r.paths, bn.Target)
		r.API.Metrics().RouteBreaks++
		r.Start(bn.Target)
	}
}

func (r *TicketRouter) handleData(pkt *netstack.Packet) {
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
	if !r.API.HasNeighbor(nextHop) {
		// link broke under the path: report upstream, drop here
		r.API.Metrics().RouteBreaks++
		r.API.Drop(pkt)
		r.reportBreak(hdr.Path, hdr.Next)
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

// reportBreak unicasts a break notice back toward the origin along the
// upstream part of the source route.
func (r *TicketRouter) reportBreak(path []netstack.NodeID, selfIdx int) {
	if selfIdx <= 0 || selfIdx >= len(path) {
		return
	}
	origin := path[0]
	target := path[len(path)-1]
	pkt := &netstack.Packet{
		UID: r.API.NewUID(), Kind: netstack.KindRERR, Proto: r.Name(),
		Src: r.API.Self(), Dst: origin, TTL: routing.DefaultTTL, Size: 24,
		Created: r.API.Now(),
		Payload: breakNotice{Origin: origin, Target: target},
	}
	r.API.Send(path[selfIdx-1], pkt)
}

// OnSendFailed implements netstack.Router: a probed path broke under data
// — blacklist, report upstream (or re-probe when we are the origin), and
// count the break.
func (r *TicketRouter) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	hdr, ok := pkt.Payload.(srcHeader)
	if !ok || !pkt.Data {
		return
	}
	if r.API.Self() == hdr.Path[0] {
		// origin: rebuild and requeue this packet
		target := pkt.Dst
		if _, okP := r.paths[target]; okP {
			delete(r.paths, target)
			r.API.Metrics().RouteBreaks++
		}
		pkt.Payload = nil
		r.Buffer(pkt)
		return
	}
	r.API.Metrics().RouteBreaks++
	r.API.Drop(pkt)
	r.reportBreak(hdr.Path, hdr.Next)
}

// OnNeighborExpired implements netstack.Router: source-side paths whose
// first hop died are rebuilt immediately.
func (r *TicketRouter) OnNeighborExpired(id netstack.NodeID) {
	for dst, ap := range r.paths {
		if len(ap.hops) >= 2 && ap.hops[1] == id {
			delete(r.paths, dst)
			r.API.Metrics().RouteBreaks++
			if r.Waiting(dst) {
				r.Start(dst)
			}
		}
	}
}

// ActivePath exposes the current source route for tests.
func (r *TicketRouter) ActivePath(dst netstack.NodeID) ([]netstack.NodeID, float64, bool) {
	ap, ok := r.paths[dst]
	if !ok {
		return nil, 0, false
	}
	return append([]netstack.NodeID(nil), ap.hops...), ap.stability, true
}

func capStability(s float64) float64 {
	const maxHold = 120
	if s > maxHold {
		return maxHold
	}
	return s
}

func onPath(path []netstack.NodeID, id netstack.NodeID) bool {
	return indexOf(path, id) >= 0
}

func indexOf(path []netstack.NodeID, id netstack.NodeID) int {
	for i, v := range path {
		if v == id {
			return i
		}
	}
	return -1
}
