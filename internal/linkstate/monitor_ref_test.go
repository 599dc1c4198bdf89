package linkstate

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
)

// refMonitor is the map-backed Monitor the sorted-slice table replaced,
// kept verbatim as the reference model for TestMonitorMatchesReference.
// It shares LinkState (memo fields included) and the Estimator, so the
// two must agree on every observable value, instrumentation counters and
// digest stream included.
type refMonitor struct {
	entries    map[NodeID]*LinkState
	ttl        float64
	rangeM     float64
	est        Estimator
	oldest     float64
	memoHits   uint64
	memoMisses uint64
	fullSweeps uint64
}

func newRefMonitor(ttl, rangeM float64, est Estimator) *refMonitor {
	return &refMonitor{
		entries: make(map[NodeID]*LinkState),
		ttl:     ttl,
		rangeM:  rangeM,
		est:     est,
		oldest:  math.Inf(1),
	}
}

func (m *refMonitor) Update(id NodeID, kind NodeKind, pos, vel geom.Vec2, rssi, now float64) *LinkState {
	e, ok := m.entries[id]
	if !ok {
		e = &LinkState{ID: id, MeanRSSI: rssi, FirstSeen: now, FeedbackProb: 1}
		m.entries[id] = e
	}
	if now < m.oldest {
		m.oldest = now
	}
	if ok && now > e.LastSeen {
		inst := (rssi - e.RSSI) / (now - e.LastSeen)
		e.RSSITrend = (1-trendAlpha)*e.RSSITrend + trendAlpha*inst
	}
	e.Kind = kind
	e.Pos = pos
	e.Vel = vel
	e.RSSI = rssi
	e.MeanRSSI = (1-rssiAlpha)*e.MeanRSSI + rssiAlpha*rssi
	e.LastSeen = now
	e.Beacons++
	e.FeedbackProb = (1-feedbackAlpha)*e.FeedbackProb + feedbackAlpha
	return e
}

func (m *refMonitor) RecordReceived(id NodeID) {
	e, ok := m.entries[id]
	if !ok {
		return
	}
	e.Received++
	e.FeedbackProb = (1-feedbackAlpha)*e.FeedbackProb + feedbackAlpha
}

func (m *refMonitor) RecordSendFailed(id NodeID) {
	e, ok := m.entries[id]
	if !ok {
		return
	}
	e.TxFails++
	e.FeedbackProb = (1 - feedbackAlpha) * e.FeedbackProb
}

func (m *refMonitor) Get(id NodeID) (LinkState, bool) {
	e, ok := m.entries[id]
	if !ok {
		return LinkState{}, false
	}
	return *e, true
}

func (m *refMonitor) Has(id NodeID) bool {
	_, ok := m.entries[id]
	return ok
}

func (m *refMonitor) Len() int { return len(m.entries) }

func (m *refMonitor) Remove(id NodeID) { delete(m.entries, id) }

func (m *refMonitor) Reset() {
	clear(m.entries)
	m.oldest = math.Inf(1)
}

func (m *refMonitor) Snapshot() []LinkState {
	out := make([]LinkState, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *refMonitor) State(id NodeID, obs Observer) (LinkState, bool) {
	e, ok := m.entries[id]
	if !ok {
		return LinkState{}, false
	}
	return m.derive(e, obs), true
}

func (m *refMonitor) States(obs Observer) []LinkState {
	out := make([]LinkState, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, m.derive(e, obs))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *refMonitor) derive(e *LinkState, obs Observer) LinkState {
	kin := m.kinematic(e, obs)
	ls := *e
	ls.Age = obs.Now - ls.LastSeen
	p := m.est.Estimate(ls, obs, kin)
	ls.Lifetime = p.Lifetime
	ls.ReceiptProb = p.ReceiptProb
	return ls
}

func (m *refMonitor) kinematic(e *LinkState, obs Observer) float64 {
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

func (m *refMonitor) DigestInto(d *digest.Writer) {
	d.Int(len(m.entries))
	ids := make([]NodeID, 0, len(m.entries))
	for id := range m.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := m.entries[id]
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

func (m *refMonitor) Expire(now float64) []NodeID {
	if now-m.oldest <= m.ttl {
		return nil
	}
	m.fullSweeps++
	var gone []NodeID
	min := math.Inf(1)
	for id, e := range m.entries {
		if now-e.LastSeen > m.ttl {
			gone = append(gone, id)
			delete(m.entries, id)
		} else if e.LastSeen < min {
			min = e.LastSeen
		}
	}
	m.oldest = min
	sort.Slice(gone, func(i, j int) bool { return gone[i] < gone[j] })
	return gone
}

func (m *refMonitor) MemoStats() (hits, misses uint64) { return m.memoHits, m.memoMisses }

func (m *refMonitor) FullSweeps() uint64 { return m.fullSweeps }

// TestMonitorMatchesReference drives the sorted-slice Monitor and the
// map-backed reference with the same seeded random traces — beacons,
// MAC feedback, removals (present and absent IDs), crash resets, expiry
// sweeps and estimator reads across mobility-epoch advances — and after
// every operation requires identical results from every read accessor,
// the expiry result, the instrumentation counters and the digest.
func TestMonitorMatchesReference(t *testing.T) {
	const pool = 24 // IDs drawn from [0, pool): re-insertion is frequent
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	var reinserted, absentRemoves, sweeps int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := NewMonitor(2.5, 250, nil)
		want := newRefMonitor(2.5, 250, got.Estimator())
		expired := make(map[NodeID]bool)
		now := 0.0
		obs := Observer{Epoch: 1}
		for step := 0; step < 600; step++ {
			id := NodeID(rng.Intn(pool))
			var op string
			switch r := rng.Intn(100); {
			case r < 45:
				op = "Update"
				kind := NodeKind(1 + rng.Intn(3))
				pos := geom.V(rng.Float64()*1000, rng.Float64()*20)
				vel := geom.V(rng.NormFloat64()*10, 0)
				rssi := -50 - rng.Float64()*40
				if expired[id] && !want.Has(id) {
					reinserted++
				}
				a := *got.Update(id, kind, pos, vel, rssi, now)
				b := *want.Update(id, kind, pos, vel, rssi, now)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d step %d: Update returned %+v, want %+v", seed, step, a, b)
				}
			case r < 55:
				op = "RecordReceived"
				got.RecordReceived(id)
				want.RecordReceived(id)
			case r < 63:
				op = "RecordSendFailed"
				got.RecordSendFailed(id)
				want.RecordSendFailed(id)
			case r < 68:
				op = "Remove"
				if !want.Has(id) {
					absentRemoves++
				}
				got.Remove(id)
				want.Remove(id)
			case r < 69:
				op = "Reset"
				got.Reset()
				want.Reset()
			case r < 84:
				op = "Expire"
				a, b := got.Expire(now), want.Expire(now)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d step %d: Expire(%v) = %v, want %v", seed, step, now, a, b)
				}
				for _, g := range b {
					expired[g] = true
				}
			case r < 92:
				op = "State"
				a, aok := got.State(id, obs)
				b, bok := want.State(id, obs)
				if aok != bok || !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d step %d: State(%d) = %+v/%v, want %+v/%v", seed, step, id, a, aok, b, bok)
				}
			default:
				op = "advance"
				now += rng.Float64() * 0.6
				obs.Now = now
				if rng.Intn(2) == 0 { // a mobility tick moves the observer
					obs.Epoch++
					obs.Pos = geom.V(rng.Float64()*1000, rng.Float64()*20)
					obs.Vel = geom.V(rng.NormFloat64()*10, 0)
				}
			}
			requireSameMonitor(t, got, want, pool, obs)
			if t.Failed() {
				t.Fatalf("seed %d step %d: diverged after %s(%d)", seed, step, op, id)
			}
		}
		sweeps += int(want.FullSweeps())
	}
	if reinserted == 0 || absentRemoves == 0 || sweeps == 0 {
		t.Fatalf("traces too narrow: %d re-insertions after expiry, %d absent removes, %d sweeps",
			reinserted, absentRemoves, sweeps)
	}
}

// requireSameMonitor compares every read accessor of got and want. States
// is read on both (it advances the memo counters identically).
func requireSameMonitor(t *testing.T, got *Monitor, want *refMonitor, pool int, obs Observer) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("Len = %d, want %d", got.Len(), want.Len())
	}
	for id := NodeID(-1); id <= NodeID(pool); id++ {
		if got.Has(id) != want.Has(id) {
			t.Errorf("Has(%d) = %v, want %v", id, got.Has(id), want.Has(id))
		}
		a, aok := got.Get(id)
		b, bok := want.Get(id)
		if aok != bok || !reflect.DeepEqual(a, b) {
			t.Errorf("Get(%d) = %+v/%v, want %+v/%v", id, a, aok, b, bok)
		}
	}
	if a, b := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("Snapshot = %+v, want %+v", a, b)
	}
	if a, b := got.AppendIDs(nil), want.Snapshot(); len(a) != len(b) {
		t.Errorf("AppendIDs = %v, want %d IDs", a, len(b))
	} else {
		for i := range a {
			if a[i] != b[i].ID {
				t.Errorf("AppendIDs = %v, not the Snapshot order", a)
				break
			}
		}
	}
	if a, b := got.States(obs), want.States(obs); !reflect.DeepEqual(a, b) {
		t.Errorf("States = %+v, want %+v", a, b)
	}
	gh, gm := got.MemoStats()
	wh, wm := want.MemoStats()
	if gh != wh || gm != wm {
		t.Errorf("MemoStats = %d/%d, want %d/%d", gh, gm, wh, wm)
	}
	if got.FullSweeps() != want.FullSweeps() {
		t.Errorf("FullSweeps = %d, want %d", got.FullSweeps(), want.FullSweeps())
	}
	dg, dw := digest.New(), digest.New()
	got.DigestInto(dg)
	want.DigestInto(dw)
	if dg.Sum() != dw.Sum() {
		t.Errorf("DigestInto = %#x, want %#x", dg.Sum(), dw.Sum())
	}
}
