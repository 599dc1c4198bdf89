package linkstate

import (
	"math"
	"slices"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
)

// rssiAlpha is the EWMA weight of a fresh beacon RSSI sample: 0.3 smooths
// shadowing while still tracking mobility (the constant the pre-plane
// neighbor table used — part of the golden determinism contract).
const rssiAlpha = 0.3

// trendAlpha smooths the per-beacon RSSI slope into RSSITrend.
const trendAlpha = 0.3

// feedbackAlpha is the EWMA weight of one observed link outcome
// (reception success or ARQ failure) in FeedbackProb.
const feedbackAlpha = 0.25

// Monitor tracks the currently live links of one node and estimates their
// quality. It subsumes the old netstack neighbor table: entries are
// created and refreshed by HELLO beacons, expire ttl seconds after the
// last beacon, and additionally accumulate MAC feedback (receptions and
// ARQ failures). Derived predictions are computed on read by the
// configured Estimator, with the kinematic Eqn (4) lifetime memoized per
// (mobility epoch, beacon count) so repeated routing decisions within one
// epoch cost no recomputation and no allocations.
//
// Storage: the table is three parallel slices sorted by neighbor ID. ids
// is the compact key every lookup binary-searches; seen mirrors each
// entry's LastSeen so the expiry scan never dereferences an entry; ents
// holds the evidence, one heap object per link so growing the table only
// copies pointers. Ordered reads (Snapshot, States, AppendIDs, DigestInto,
// Expire's result) walk the slices in place, already in ID order.
//
// Shard safety: a Monitor is confined to its owning node. The sharded
// world engine calls Expire and State on different nodes' monitors
// concurrently, but never the same monitor from two shards; every
// mutation (including the kinematic memo write-back in derive) stays
// inside this monitor's own entries, so that confinement is the only
// requirement. The shared Estimator must be stateless (the registry
// contract) for the same reason.
type Monitor struct {
	ids    []NodeID     // live neighbor IDs, ascending
	seen   []float64    // seen[i] == ents[i].LastSeen
	ents   []*LinkState // evidence, parallel to ids
	ttl    float64
	rangeM float64 // communication range r for Eqn (4)
	est    Estimator
	// oldest is a lower bound on the minimum LastSeen of any entry. The
	// per-tick expiry sweep compares it against now before iterating: a
	// table whose oldest possible entry is still fresh cannot hold anything
	// to expire, which skips the table scan on almost every tick. Refreshing
	// an entry may leave the bound stale-low; that only costs one full
	// sweep, which recomputes it exactly.
	oldest float64
	// instrumentation: kinematic-memo effectiveness and how often the
	// expiry sweep actually walked the table (tests pin both).
	memoHits   uint64
	memoMisses uint64
	fullSweeps uint64
}

// NewMonitor returns a monitor whose links expire ttl seconds after the
// last beacon, predicting with the given estimator (nil means the default
// composite estimator) over communication range rangeM.
func NewMonitor(ttl, rangeM float64, est Estimator) *Monitor {
	if est == nil {
		est = MustNew("", Config{Range: rangeM})
	}
	return &Monitor{
		ttl:    ttl,
		rangeM: rangeM,
		est:    est,
		oldest: math.Inf(1),
	}
}

// lookup returns the stored entry for id, or nil.
func (m *Monitor) lookup(id NodeID) *LinkState {
	if i, ok := slices.BinarySearch(m.ids, id); ok {
		return m.ents[i]
	}
	return nil
}

// Estimator returns the monitor's estimator.
func (m *Monitor) Estimator() Estimator { return m.est }

// Update inserts or refreshes an entry from a received beacon and returns
// the stored entry (observed fields only; derived fields are not
// recomputed here — read through State for predictions).
func (m *Monitor) Update(id NodeID, kind NodeKind, pos, vel geom.Vec2, rssi, now float64) *LinkState {
	i, ok := slices.BinarySearch(m.ids, id)
	var e *LinkState
	if ok {
		e = m.ents[i]
	} else {
		e = &LinkState{ID: id, MeanRSSI: rssi, FirstSeen: now, FeedbackProb: 1}
		m.ids = slices.Insert(m.ids, i, id)
		m.seen = slices.Insert(m.seen, i, now)
		m.ents = slices.Insert(m.ents, i, e)
	}
	if now < m.oldest {
		m.oldest = now
	}
	if ok && now > e.LastSeen {
		// slope of the raw RSSI between consecutive beacons, smoothed
		inst := (rssi - e.RSSI) / (now - e.LastSeen)
		e.RSSITrend = (1-trendAlpha)*e.RSSITrend + trendAlpha*inst
	}
	e.Kind = kind
	e.Pos = pos
	e.Vel = vel
	e.RSSI = rssi
	// EWMA over beacons smooths shadowing; alpha 0.3 tracks mobility.
	e.MeanRSSI = (1-rssiAlpha)*e.MeanRSSI + rssiAlpha*rssi
	e.LastSeen = now
	m.seen[i] = now
	e.Beacons++
	// a beacon got through: positive link feedback
	e.FeedbackProb = (1-feedbackAlpha)*e.FeedbackProb + feedbackAlpha
	return e
}

// RecordReceived folds a successfully received non-beacon frame from id
// into the link's feedback evidence. Unknown links (no beacon heard yet)
// are ignored — the table stays beacon-driven.
func (m *Monitor) RecordReceived(id NodeID) {
	e := m.lookup(id)
	if e == nil {
		return
	}
	e.Received++
	e.FeedbackProb = (1-feedbackAlpha)*e.FeedbackProb + feedbackAlpha
}

// RecordSendFailed folds a MAC transmission failure (unicast ARQ budget
// exhausted sending to id) into the link's feedback evidence.
func (m *Monitor) RecordSendFailed(id NodeID) {
	e := m.lookup(id)
	if e == nil {
		return
	}
	e.TxFails++
	e.FeedbackProb = (1 - feedbackAlpha) * e.FeedbackProb
}

// Get returns the raw observed entry for id (derived fields zero).
func (m *Monitor) Get(id NodeID) (LinkState, bool) {
	e := m.lookup(id)
	if e == nil {
		return LinkState{}, false
	}
	return *e, true
}

// Has reports whether id is currently a live link.
func (m *Monitor) Has(id NodeID) bool {
	_, ok := slices.BinarySearch(m.ids, id)
	return ok
}

// Len returns the number of live links.
func (m *Monitor) Len() int { return len(m.ids) }

// Remove deletes the entry for id, if present, discarding its evidence.
func (m *Monitor) Remove(id NodeID) {
	if i, ok := slices.BinarySearch(m.ids, id); ok {
		m.ids = slices.Delete(m.ids, i, i+1)
		m.seen = slices.Delete(m.seen, i, i+1)
		m.ents = slices.Delete(m.ents, i, i+1)
	}
}

// Reset discards every entry and its accumulated evidence, returning the
// monitor to its freshly-constructed state. A node recovering from a
// crash calls this so it re-enters the network with no stale neighbors or
// feedback history — everything it knows must be re-learned from beacons.
// Instrumentation counters survive; they describe the monitor's lifetime,
// not the current table. The table keeps its capacity for re-learning.
func (m *Monitor) Reset() {
	clear(m.ents)
	m.ids, m.seen, m.ents = m.ids[:0], m.seen[:0], m.ents[:0]
	m.oldest = math.Inf(1)
}

// AppendIDs appends the ID of every live link to dst, in ascending order,
// and returns it. It exists so periodic scanners (the netstack's link
// audit) can check membership without paying Snapshot's entry copies.
func (m *Monitor) AppendIDs(dst []NodeID) []NodeID {
	return append(dst, m.ids...)
}

// Snapshot returns all live entries sorted by ID (deterministic iteration
// for reproducible routing decisions). Derived fields are zero; use States
// for predictions.
func (m *Monitor) Snapshot() []LinkState {
	out := make([]LinkState, len(m.ents))
	for i, e := range m.ents {
		out[i] = *e
	}
	return out
}

// State returns the link state for id with derived predictions filled by
// the estimator. It allocates nothing in steady state: the kinematic
// lifetime is memoized per (epoch, beacon count) inside the entry.
func (m *Monitor) State(id NodeID, obs Observer) (LinkState, bool) {
	e := m.lookup(id)
	if e == nil {
		return LinkState{}, false
	}
	return m.derive(e, obs), true
}

// States returns the link state of every live link, sorted by ID, with
// derived predictions filled. The slice is freshly allocated (like the raw
// Snapshot), so callers may keep it.
func (m *Monitor) States(obs Observer) []LinkState {
	out := make([]LinkState, len(m.ents))
	for i, e := range m.ents {
		out[i] = m.derive(e, obs)
	}
	return out
}

// derive copies the entry and fills the estimator-derived fields. The
// kinematic memo is written back into the stored entry.
func (m *Monitor) derive(e *LinkState, obs Observer) LinkState {
	kin := m.kinematic(e, obs)
	ls := *e
	ls.Age = obs.Now - ls.LastSeen
	p := m.est.Estimate(ls, obs, kin)
	ls.Lifetime = p.Lifetime
	ls.ReceiptProb = p.ReceiptProb
	return ls
}

// kinematic returns the memoized Eqn (4) residual lifetime of the link,
// solved on the neighbor's beaconed kinematics against the observer's
// current ones. The cached solution is reused while the observer's
// mobility epoch and the entry's beacon count are both unchanged — the
// only events that can move either endpoint's kinematics.
func (m *Monitor) kinematic(e *LinkState, obs Observer) float64 {
	if e.lifeOK && e.lifeEpoch == obs.Epoch && e.lifeBeacons == e.Beacons {
		m.memoHits++
		return e.lifeVal
	}
	m.memoMisses++
	v := link.LifetimeVec(e.Pos, e.Vel, obs.Pos, obs.Vel, m.rangeM)
	e.lifeOK = true
	e.lifeEpoch = obs.Epoch
	e.lifeBeacons = e.Beacons
	e.lifeVal = v
	return v
}

// DigestInto folds the monitor's checkpoint-relevant state into d: every
// live entry's observed evidence in sorted ID order, plus the expiry
// lower bound and the instrumentation counters (all deterministic
// functions of the event history). The kinematic-lifetime memo fields
// are a pure cache keyed on shard-invariant inputs and re-derived on
// first read after restore, so they are excluded — like the radio cache.
func (m *Monitor) DigestInto(d *digest.Writer) {
	d.Int(len(m.ents))
	for _, e := range m.ents {
		d.U32(uint32(e.ID))
		d.Int(int(e.Kind))
		d.F64(e.Pos.X)
		d.F64(e.Pos.Y)
		d.F64(e.Vel.X)
		d.F64(e.Vel.Y)
		d.F64(e.RSSI)
		d.F64(e.MeanRSSI)
		d.F64(e.LastSeen)
		d.Int(e.Beacons)
		d.F64(e.FirstSeen)
		d.F64(e.RSSITrend)
		d.Int(e.Received)
		d.Int(e.TxFails)
		d.F64(e.FeedbackProb)
	}
	d.F64(m.oldest)
	d.U64(m.memoHits)
	d.U64(m.memoMisses)
	d.U64(m.fullSweeps)
}

// Expire removes entries not refreshed since now−ttl and returns their IDs
// (sorted, deterministic; nil when nothing expired). A sweep is one
// compaction pass over ids and seen; it touches ents only to move
// surviving pointers down.
func (m *Monitor) Expire(now float64) []NodeID {
	if now-m.oldest <= m.ttl {
		return nil // even the oldest possible entry is still fresh
	}
	m.fullSweeps++
	var gone []NodeID
	min := math.Inf(1)
	k := 0
	for i, t := range m.seen {
		if now-t > m.ttl {
			gone = append(gone, m.ids[i])
			continue
		}
		if t < min {
			min = t
		}
		m.ids[k], m.seen[k], m.ents[k] = m.ids[i], t, m.ents[i]
		k++
	}
	clear(m.ents[k:])
	m.ids, m.seen, m.ents = m.ids[:k], m.seen[:k], m.ents[:k]
	m.oldest = min
	return gone
}

// MemoStats returns how often the kinematic lifetime memo hit and missed.
// With the grid epoch advancing once per tick, every State read after the
// first per (entry, tick) should hit — the counter test pins that.
func (m *Monitor) MemoStats() (hits, misses uint64) {
	return m.memoHits, m.memoMisses
}

// FullSweeps returns how many Expire calls actually walked the table
// (rather than being dismissed by the oldest-entry lower bound). A quiet
// table — no links, or none old enough to expire — must keep this at
// zero no matter how many ticks elapse.
func (m *Monitor) FullSweeps() uint64 { return m.fullSweeps }
