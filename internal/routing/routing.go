// Package routing holds the building blocks shared by every protocol
// implementation: duplicate caches, distance-vector route tables,
// sequence-number arithmetic, and Discovery, the on-demand core of the
// reactive routers. The concrete protocols live in the subpackages (one
// per surveyed protocol family) and in internal/core for the paper's own
// ticket-probing protocol.
package routing

import (
	"sort"

	"github.com/vanetlab/relroute/internal/netstack"
)

// DefaultTTL is the hop budget given to flooded control packets and data;
// VANET diameters in the experiments stay well below it.
const DefaultTTL = 32

// DupKey identifies a flooded packet instance: origin plus origin-local
// sequence number.
type DupKey struct {
	Origin netstack.NodeID
	Seq    uint64
}

// DupCache remembers recently seen flooded packets so they are forwarded
// at most once. Entries expire after TTL seconds to bound memory.
type DupCache struct {
	ttl     float64
	seen    map[DupKey]float64 // key → insertion time
	sweepAt float64
}

// NewDupCache returns a cache whose entries persist for ttl seconds.
func NewDupCache(ttl float64) *DupCache {
	if ttl <= 0 {
		ttl = 30
	}
	return &DupCache{ttl: ttl, seen: make(map[DupKey]float64)}
}

// Seen records the key and reports whether it was already present.
func (c *DupCache) Seen(k DupKey, now float64) bool {
	if now >= c.sweepAt {
		for key, at := range c.seen {
			if now-at > c.ttl {
				delete(c.seen, key)
			}
		}
		c.sweepAt = now + c.ttl
	}
	if _, ok := c.seen[k]; ok {
		return true
	}
	c.seen[k] = now
	return false
}

// Len returns the number of live entries (after lazily expiring on Seen).
func (c *DupCache) Len() int { return len(c.seen) }

// SeqNewer implements the circular sequence-number comparison used by
// AODV/DSDV: a is fresher than b. Equal numbers are not newer.
func SeqNewer(a, b uint32) bool {
	return int32(a-b) > 0
}

// Route is one distance-vector route entry.
type Route struct {
	Dst      netstack.NodeID
	NextHop  netstack.NodeID
	Hops     int
	Seq      uint32
	Expiry   float64 // sim time after which the route is stale; 0 = none
	Valid    bool
	Lifetime float64 // predicted remaining path lifetime (mobility protocols)

	// deadAt is the sim time the route died (0 while alive); the lazy
	// sweep ages dead entries against it. Invalidate and the Lookup
	// expiry path stamp it exactly; a route killed by direct mutation of
	// the Get pointer is stamped by the first sweep that observes it
	// dead, so it always gets the full grace window.
	deadAt float64
}

// DefaultRouteRetention is how long an invalidated or expired route entry
// is retained before the lazy sweep deletes it, in seconds. The retention
// mirrors AODV's DELETE_PERIOD: dead entries keep their sequence numbers
// visible to Get for a bounded grace window (loop freedom across repair
// races), then go away — without it, per-node tables grow for the whole
// run, worst under open-world churn where departed destinations would
// otherwise linger forever.
const DefaultRouteRetention = 30.0

// Table is a per-node route table. Dead entries (invalidated or expired)
// are garbage-collected by a lazy sweep driven off the time-bearing
// accessors (Lookup, Destinations): once an entry has been dead for the
// retention period it is deleted, bounding table growth under churn.
type Table struct {
	routes    map[netstack.NodeID]*Route
	retention float64
	// lastNow is the latest sim time observed through any accessor;
	// Invalidate (which takes no time argument) stamps death with it —
	// exact whenever the protocol consults the table at the same event
	// (they all do) and a safe under-estimate otherwise.
	lastNow float64
	sweepAt float64
}

// NewTable returns an empty route table with the default retention.
func NewTable() *Table {
	return &Table{routes: make(map[netstack.NodeID]*Route), retention: DefaultRouteRetention}
}

// SetRetention changes how long dead entries are retained before the lazy
// sweep removes them; zero or negative disables sweeping entirely (the
// pre-plane unbounded behaviour).
func (t *Table) SetRetention(seconds float64) { t.retention = seconds }

// observe advances the table's time bound and runs the lazy sweep at most
// once per retention period.
func (t *Table) observe(now float64) {
	if now > t.lastNow {
		t.lastNow = now
	}
	if t.retention <= 0 || now < t.sweepAt {
		return
	}
	t.sweepAt = now + t.retention
	for dst, r := range t.routes {
		if r.Valid && (r.Expiry == 0 || now <= r.Expiry) {
			r.deadAt = 0 // alive (possibly resurrected by direct mutation)
			continue
		}
		// The grace window runs from when the route died, not from its
		// last table write. If death was never stamped (a protocol set
		// Valid = false through the Get pointer), stamp it now: a route
		// that expired on its own died at Expiry, anything else is first
		// observed dead here.
		if r.deadAt == 0 {
			if r.Valid {
				r.deadAt = r.Expiry
			} else {
				r.deadAt = now
			}
		}
		if now-r.deadAt > t.retention {
			delete(t.routes, dst)
		}
	}
}

// Get returns the entry for dst, valid or not. Dead entries remain
// readable (sequence numbers, last hop counts) until the retention sweep
// collects them.
func (t *Table) Get(dst netstack.NodeID) (*Route, bool) {
	r, ok := t.routes[dst]
	return r, ok
}

// Lookup returns the entry only when it is valid and unexpired at now.
func (t *Table) Lookup(dst netstack.NodeID, now float64) (*Route, bool) {
	t.observe(now)
	r, ok := t.routes[dst]
	if !ok || !r.Valid {
		return nil, false
	}
	if r.Expiry > 0 && now > r.Expiry {
		r.Valid = false
		r.deadAt = r.Expiry
		return nil, false
	}
	return r, true
}

// Upsert inserts or replaces the entry for r.Dst and returns it.
func (t *Table) Upsert(r Route) *Route {
	cp := r
	cp.deadAt = 0
	if !cp.Valid {
		cp.deadAt = t.lastNow // inserted already-dead: grace starts now
	}
	t.routes[r.Dst] = &cp
	return &cp
}

// Remove deletes the entry for dst immediately, if present.
func (t *Table) Remove(dst netstack.NodeID) { delete(t.routes, dst) }

// Invalidate marks the route to dst broken; it reports whether a valid
// route existed.
func (t *Table) Invalidate(dst netstack.NodeID) bool {
	r, ok := t.routes[dst]
	if !ok || !r.Valid {
		return false
	}
	r.Valid = false
	r.deadAt = t.lastNow
	return true
}

// InvalidateVia invalidates every valid route whose next hop is via and
// returns the affected destinations (sorted, deterministic).
func (t *Table) InvalidateVia(via netstack.NodeID) []netstack.NodeID {
	var out []netstack.NodeID
	for dst, r := range t.routes {
		if r.Valid && r.NextHop == via {
			r.Valid = false
			r.deadAt = t.lastNow
			out = append(out, dst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Destinations returns all destinations with valid routes (sorted).
func (t *Table) Destinations(now float64) []netstack.NodeID {
	t.observe(now)
	var out []netstack.NodeID
	for dst, r := range t.routes {
		if r.Valid && (r.Expiry == 0 || now <= r.Expiry) {
			out = append(out, dst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of stored entries — valid routes plus dead ones
// still inside the retention window. Use LenValid for the routable count.
func (t *Table) Len() int { return len(t.routes) }

// MergeReverse installs nr unless a valid route to nr.Dst already has
// fewer hops, or as many hops and at least as long a lifetime. Hop
// monotonicity keeps the reverse forwarding graph loop-free; among equal
// hop counts the longer-lived route wins.
func (t *Table) MergeReverse(nr Route) {
	cur, ok := t.routes[nr.Dst]
	if ok && cur.Valid && !(nr.Hops < cur.Hops || (nr.Hops == cur.Hops && nr.Lifetime > cur.Lifetime)) {
		return
	}
	t.Upsert(nr)
}

// LenValid returns the number of valid, unexpired routes at now (without
// mutating any entry).
func (t *Table) LenValid(now float64) int {
	n := 0
	for _, r := range t.routes {
		if r.Valid && (r.Expiry == 0 || now <= r.Expiry) {
			n++
		}
	}
	return n
}
