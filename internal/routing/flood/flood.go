// Package flood implements the survey's connectivity-based baseline
// (Sec. III): pure flooding, in which every node rebroadcasts each data
// packet it sees for the first time. It is "easy to implement" and "a good
// solution for traffic notification applications", but exhibits the
// broadcast storm problem as density grows — the behaviour experiment E-A1
// measures. The package also provides Biswas's acknowledged variant, which
// treats overhearing its own rebroadcast from another node as an implicit
// acknowledgment and retransmits until acknowledged.
package flood

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/sim"
)

// Router is the pure flooding router.
type Router struct {
	netstack.Base
	dup *routing.DupCache
}

// New returns a flooding router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		return &Router{dup: routing.NewDupCache(30)}
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Flooding" }

// NeedsBeacons implements netstack.Router: flooding needs no neighbor
// state, which is exactly why Table I calls it "simple".
func (r *Router) NeedsBeacons() bool { return false }

// Originate implements netstack.Router: data is simply broadcast.
func (r *Router) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(r.API, r.Name(), dst, size)
	r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, r.API.Now())
	r.API.Send(netstack.Broadcast, pkt)
}

// HandlePacket implements netstack.Router: deliver if addressed to us,
// rebroadcast the first copy otherwise. Every terminal path hands the
// received copy back to the stack's pool — in a broadcast storm the
// overwhelming majority of receptions are duplicates, so recycling them
// is what keeps the flood allocation-free in steady state.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		r.API.Release(pkt)
		return
	}
	if r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, r.API.Now()) {
		r.API.Release(pkt)
		return
	}
	if pkt.Dst == r.API.Self() || pkt.Dst == netstack.Broadcast {
		r.API.Deliver(pkt)
		if pkt.Dst == r.API.Self() {
			// unicast semantics: the destination does not rebroadcast
			r.API.Release(pkt)
			return
		}
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Drop(pkt)
		r.API.Release(pkt)
		return
	}
	r.API.Send(netstack.Broadcast, pkt)
}

// Biswas is the acknowledged flooding router of Biswas et al. [9]: after
// rebroadcasting, a node listens for the same packet from another node; if
// no copy is overheard within AckTimeout it rebroadcasts again, up to
// MaxRetries times. ("If the vehicle does not receive the acknowledgment,
// it will periodically rebroadcast the packet until the acknowledgment is
// received.")
type Biswas struct {
	netstack.Base
	dup   *routing.DupCache
	retry map[uint64]*retryState
	// AckTimeout is the implicit-ack wait; zero means 0.5 s.
	AckTimeout float64
	// MaxRetries bounds retransmissions; zero means 3.
	MaxRetries int
}

type retryState struct {
	timer sim.TimerID
	tries int
	pkt   *netstack.Packet
}

// NewBiswas returns a factory for the acknowledged flooding router.
func NewBiswas() netstack.RouterFactory {
	return func() netstack.Router {
		return &Biswas{
			dup:   routing.NewDupCache(30),
			retry: make(map[uint64]*retryState),
		}
	}
}

// Name implements netstack.Router.
func (b *Biswas) Name() string { return "Biswas" }

// NeedsBeacons implements netstack.Router: implicit-ack flooding needs no
// neighbor state.
func (b *Biswas) NeedsBeacons() bool { return false }

func (b *Biswas) ackTimeout() float64 {
	if b.AckTimeout <= 0 {
		return 0.5
	}
	return b.AckTimeout
}

func (b *Biswas) maxRetries() int {
	if b.MaxRetries <= 0 {
		return 3
	}
	return b.MaxRetries
}

// Originate implements netstack.Router.
func (b *Biswas) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(b.API, b.Name(), dst, size)
	b.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, b.API.Now())
	b.broadcastWithAck(pkt)
}

// HandlePacket implements netstack.Router.
func (b *Biswas) HandlePacket(pkt *netstack.Packet) {
	if pkt.Kind != netstack.KindData {
		return
	}
	// Any overheard copy acknowledges our pending rebroadcast.
	if st, ok := b.retry[pkt.UID]; ok {
		b.API.Cancel(st.timer)
		delete(b.retry, pkt.UID)
	}
	if b.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: pkt.UID}, b.API.Now()) {
		return
	}
	if pkt.Dst == b.API.Self() || pkt.Dst == netstack.Broadcast {
		b.API.Deliver(pkt)
		if pkt.Dst == b.API.Self() {
			return
		}
	}
	pkt.TTL--
	if pkt.Expired() {
		b.API.Drop(pkt)
		return
	}
	b.broadcastWithAck(pkt)
}

// broadcastWithAck transmits and arms the implicit-ack retry timer.
func (b *Biswas) broadcastWithAck(pkt *netstack.Packet) {
	b.API.Send(netstack.Broadcast, pkt)
	st := &retryState{pkt: pkt}
	b.retry[pkt.UID] = st
	var arm func()
	arm = func() {
		st.timer = b.API.After(b.ackTimeout(), func() {
			if st.tries >= b.maxRetries() {
				delete(b.retry, pkt.UID)
				return
			}
			st.tries++
			b.API.Send(netstack.Broadcast, st.pkt.Clone())
			arm()
		})
	}
	arm()
}
