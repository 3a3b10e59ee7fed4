package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the metrics registry: named, typed instruments with a
// lock-free hot path. Two properties are load-bearing for the rest of
// the repo:
//
//   - Nil safety. Every instrument method and every Registry method is a
//     no-op (or zero) on a nil receiver. Instrumented code therefore
//     holds plain instrument pointers that stay nil when telemetry is
//     disabled, and the disabled hot path costs one predictable nil
//     check — no branches on a config struct, no interface calls, no
//     allocation. The golden-window tests pin that this path cannot
//     perturb results.
//
//   - Commutative merges. Counters and histograms fold by addition and
//     gauges by summation, so per-rig registries merged into a run-level
//     registry produce totals independent of completion order — the
//     parallel engine can merge points as they finish and still report
//     deterministic counts for a fixed seed.

// Counter is a monotonically increasing uint64, safe for concurrent use.
// A nil *Counter discards all updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value, safe for concurrent use. A nil
// *Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the value by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an instantaneous float64 value, safe for concurrent
// use. It exists for the scrape/merge plane: per-node exporters publish
// derived request-level signals (observed RPS, send-delta variance)
// that have no exact integer representation. A nil *FloatGauge discards
// all updates.
type FloatGauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add moves the value by d. Unlike Set it takes the registration mutex
// path's atomicity per call, not across calls: concurrent Adds are each
// applied exactly once (CAS loop).
func (g *FloatGauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket geometry: 64 base-2 exponents x histSub linear
// sub-buckets, the same log-linear scheme as stats.Histogram but with
// atomic buckets and a coarser sub-bucket count (worst-case relative
// quantile error 1/histSub = 12.5%), keeping one histogram at ~4 KiB.
const (
	histExps = 64
	histSub  = 8
	histSubL = 3 // log2(histSub)
)

// Histogram is a log-linear histogram of non-negative int64 observations
// (typically nanoseconds), safe for concurrent use. A nil *Histogram
// discards all updates.
type Histogram struct {
	buckets [histExps * histSub]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

func histIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	shift := exp - histSubL
	sub := int((uint64(v) >> uint(shift)) & (histSub - 1))
	return exp*histSub + sub
}

// histLow returns the lower bound of bucket i.
func histLow(i int) int64 {
	exp, sub := i/histSub, i%histSub
	if exp == 0 {
		return int64(sub)
	}
	shift := exp - histSubL
	if shift < 0 {
		shift = 0
	}
	return (int64(1) << uint(exp)) | (int64(sub) << uint(shift))
}

// histHigh returns the largest observation mapping to bucket i — the
// bucket's inclusive `le` bound in the Prometheus export. Using the
// next *index*'s lower bound instead would be wrong: indexes whose
// exponent is below histSubL are unoccupiable (small values map to the
// linear 0..histSub-1 range), so the next occupied bucket is not always
// the next index, and bounds emitted that way go out of order around
// the linear/log seam. TestPromRoundTripProperty pins the ordering.
func histHigh(i int) int64 {
	exp, sub := i/histSub, i%histSub
	if exp < histSubL {
		// Linear region: one integer per bucket (indexes histSub..
		// histSub*histSubL-1 are unoccupiable and never emitted).
		return int64(i)
	}
	shift := exp - histSubL
	return (int64(1) << uint(exp)) + (int64(sub+1) << uint(shift)) - 1
}

// Observe records one value. Negative values count as zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[histIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation (0 on nil or empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an approximation of the q-th quantile (lower bucket
// bound, clamped to Max).
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q*float64(total) + 0.5)
	if target == 0 {
		target = 1
	}
	if target >= total {
		return h.max.Load() // the top quantile is tracked exactly
	}
	var seen uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= target {
			v := histLow(i)
			if m := h.max.Load(); v > m {
				v = m
			}
			return v
		}
	}
	return h.max.Load()
}

// merge folds o into h (bucket-wise addition; commutative).
func (h *Histogram) merge(o *Histogram) {
	for i := range h.buckets {
		if c := o.buckets[i].Load(); c > 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for {
		om, cur := o.max.Load(), h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			return
		}
	}
}

// Registry is a named set of instruments. Registration (the Counter,
// Gauge and Histogram lookups) takes a mutex; instrument updates are
// lock-free. A nil *Registry returns nil instruments from every lookup,
// so a single nil check at wiring time disables a whole subsystem's
// telemetry at zero ongoing cost.
//
// Each kind's instruments live in a table sorted by name, which is the
// export order. Registering a new name copies the table (registration
// is rare, exports are not), so a table read under mu stays a
// consistent snapshot after mu is released: exports and merges walk it
// without holding the lock and without sorting.
type Registry struct {
	mu          sync.Mutex
	counters    []named[Counter]
	gauges      []named[Gauge]
	floatGauges []named[FloatGauge]
	histograms  []named[Histogram]
}

// named is one row of an instrument table.
type named[T any] struct {
	name string
	inst *T
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// lookup returns the instrument registered under name in *table,
// inserting a new one at its sorted position on first use.
func lookup[T any](mu *sync.Mutex, table *[]named[T], name string) *T {
	mu.Lock()
	defer mu.Unlock()
	t := *table
	i := sort.Search(len(t), func(i int) bool { return t[i].name >= name })
	if i < len(t) && t[i].name == name {
		return t[i].inst
	}
	grown := make([]named[T], len(t)+1)
	copy(grown, t[:i])
	grown[i] = named[T]{name, new(T)}
	copy(grown[i+1:], t[i:])
	*table = grown
	return grown[i].inst
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, &r.counters, name)
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, &r.gauges, name)
}

// FloatGauge returns the float gauge registered under name, creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, &r.floatGauges, name)
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, &r.histograms, name)
}

// tables returns a consistent snapshot of the four instrument tables.
func (r *Registry) tables() ([]named[Counter], []named[Gauge], []named[FloatGauge], []named[Histogram]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters, r.gauges, r.floatGauges, r.histograms
}

// Merge folds every instrument of o into r: counters and histograms add,
// gauges sum. Merging is commutative, so folding per-rig registries into
// a run-level registry yields completion-order-independent totals. Nil
// receiver or nil argument is a no-op.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	// Fold from a snapshot of o, so the two locks are never held at once.
	counters, gauges, fgauges, hists := o.tables()
	for _, e := range counters {
		r.Counter(e.name).Add(e.inst.Value())
	}
	for _, e := range gauges {
		r.Gauge(e.name).Add(e.inst.Value())
	}
	for _, e := range fgauges {
		r.FloatGauge(e.name).Add(e.inst.Value())
	}
	for _, e := range hists {
		r.Histogram(e.name).merge(e.inst)
	}
}

// Snapshot flattens the registry into a name -> value map: counters and
// gauges directly, histograms expanded into _count, _sum and _max
// entries. Returns nil on a nil or empty registry — convenient for
// attaching to journal spans.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	counters, gauges, fgauges, hists := r.tables()
	n := len(counters) + len(gauges) + len(fgauges) + 3*len(hists)
	if n == 0 {
		return nil
	}
	out := make(map[string]float64, n)
	for _, e := range counters {
		out[e.name] = float64(e.inst.Value())
	}
	for _, e := range gauges {
		out[e.name] = float64(e.inst.Value())
	}
	for _, e := range fgauges {
		out[e.name] = e.inst.Value()
	}
	for _, e := range hists {
		out[e.name+"_count"] = float64(e.inst.Count())
		out[e.name+"_sum"] = float64(e.inst.Sum())
		out[e.name+"_max"] = float64(e.inst.Max())
	}
	return out
}
