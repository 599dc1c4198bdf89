// Package channel models wireless propagation between vehicles: the link
// budget at a distance and the per-frame reception draw from it, the
// received signal strength (for protocols like REAR that act on RSSI), and
// the carrier-sense range (for the MAC's collision bookkeeping).
package channel

import (
	"math"
	"math/rand"

	"github.com/vanetlab/relroute/internal/prob"
)

// Model decides frame reception in two steps: PathLoss, the deterministic
// link budget the radio cache stores once per link per mobility epoch, and
// DecodableAt, the per-frame draw from it.
type Model interface {
	// MaxRange returns a conservative upper bound on the distance at which
	// reception is possible; the MAC uses it to prune candidate receivers.
	MaxRange() float64
	// RSSI returns the received signal strength in dBm for a frame over
	// distance d, including the random shadowing realisation.
	RSSI(d float64, rng *rand.Rand) float64
	// MeanRange returns the distance at which reception probability is
	// 50%, used to parameterise analytic link-lifetime models (their r).
	MeanRange() float64
	// PathLoss returns the deterministic part of the link budget at
	// distance d. The value is opaque to callers and only meaningful to
	// DecodableAt of the same model: UnitDisk returns the distance itself,
	// Shadowing folds the log-distance path loss through the receiver
	// threshold into a receipt probability.
	PathLoss(d float64) float64
	// PathLossInto writes PathLoss(dists[i]) into dst[i], bit for bit, for
	// every i in one call; dst and dists have equal length and do not
	// overlap.
	PathLossInto(dst, dists []float64)
	// DecodableAt decides reception from a value PathLoss returned; its
	// RNG draws are part of the pinned draw order.
	DecodableAt(loss float64, rng *rand.Rand) bool
}

// UnitDisk is the idealised model: every frame within Range is received,
// nothing beyond. It keeps analytic results exact, so the Fig. 3 lifetime
// validation uses it.
type UnitDisk struct {
	Range float64 // meters
}

var _ Model = UnitDisk{}

// MaxRange implements Model.
func (u UnitDisk) MaxRange() float64 { return u.Range }

// MeanRange implements Model.
func (u UnitDisk) MeanRange() float64 { return u.Range }

// PathLoss implements Model: the unit disk's only link-budget input is
// the distance itself.
func (u UnitDisk) PathLoss(d float64) float64 { return d }

// DecodableAt implements Model; it never draws.
func (u UnitDisk) DecodableAt(loss float64, _ *rand.Rand) bool { return loss <= u.Range }

// PathLossInto implements Model: the unit disk's link budget is the
// distance itself, so the batch is a copy.
func (u UnitDisk) PathLossInto(dst, dists []float64) { copy(dst, dists) }

// RSSI implements Model with a deterministic log-distance curve so RSSI
// ordering still reflects distance.
func (u UnitDisk) RSSI(d float64, _ *rand.Rand) float64 {
	if d < 1 {
		d = 1
	}
	return 20 - 46.7 - 28*math.Log10(d)
}

// Shadowing is the log-normal shadowing model the survey lists as the
// standard signal-strength assumption: received power is normally
// distributed in dB around the log-distance path loss, and a frame is
// decodable when it exceeds the receiver threshold.
type Shadowing struct {
	Receipt prob.ReceiptModel
	// CutoffProb prunes the model's unbounded tail: distances whose
	// receipt probability falls below it are treated as out of range.
	// Zero means 0.01.
	CutoffProb float64

	maxRange float64 // cached
}

// NewShadowing returns a shadowing channel for the given receipt model.
func NewShadowing(m prob.ReceiptModel) *Shadowing {
	s := &Shadowing{Receipt: m, CutoffProb: 0.01}
	s.maxRange = s.computeMaxRange()
	return s
}

var _ Model = (*Shadowing)(nil)

func (s *Shadowing) cutoff() float64 {
	if s.CutoffProb <= 0 {
		return 0.01
	}
	return s.CutoffProb
}

func (s *Shadowing) computeMaxRange() float64 {
	lo, hi := 1.0, 20000.0
	if s.Receipt.Prob(hi) > s.cutoff() {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if s.Receipt.Prob(mid) > s.cutoff() {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// MaxRange implements Model.
func (s *Shadowing) MaxRange() float64 { return s.maxRange }

// MeanRange implements Model.
func (s *Shadowing) MeanRange() float64 { return s.Receipt.MedianRange() }

// PathLoss implements Model. The whole deterministic chain — mean path
// loss at d, received power, threshold margin — folds into a single
// number, the receipt probability, so it is returned directly: caching it
// leaves only a uniform draw per frame. (Comparing a Gaussian shadowing
// sample against the threshold would be distribution-equivalent but would
// consume different RNG draws, breaking the pinned draw order.)
func (s *Shadowing) PathLoss(d float64) float64 { return s.Receipt.Prob(d) }

// DecodableAt implements Model: one uniform draw against the receipt
// probability, none when the outcome is certain (p ≥ 1 or p ≤ 0).
func (s *Shadowing) DecodableAt(loss float64, rng *rand.Rand) bool {
	if loss >= 1 {
		return true
	}
	if loss <= 0 {
		return false
	}
	return rng.Float64() < loss
}

// PathLossInto implements Model: the same receipt-probability chain as
// PathLoss, evaluated as a direct concrete-method loop.
func (s *Shadowing) PathLossInto(dst, dists []float64) {
	if len(dists) == 0 {
		return
	}
	_ = dst[len(dists)-1] // one bounds check for the loop
	for i, d := range dists {
		dst[i] = s.Receipt.Prob(d)
	}
}

// RSSI implements Model: mean path-loss power plus a shadowing draw.
func (s *Shadowing) RSSI(d float64, rng *rand.Rand) float64 {
	mean := s.Receipt.MeanRxPower(d)
	if s.Receipt.ShadowSigmaDB <= 0 || rng == nil {
		return mean
	}
	return mean + s.Receipt.ShadowSigmaDB*rng.NormFloat64()
}
