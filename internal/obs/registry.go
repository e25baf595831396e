// Package obs is the observability substrate for the sensor network: a
// dependency-free metrics registry with Prometheus text exposition, a
// lightweight span tracer backed by a ring buffer, a leveled structured
// logger, and an HTTP admin mux that serves all of it plus net/http/pprof.
//
// The paper's end state (§5) is a paid sensing marketplace; operators of
// such a network need to *see* per-node pipeline health — decode rates,
// consensus anomalies, scheduler behaviour — the way Electrosense watches
// its production sensors. Every metric here is also the measurement
// substrate for performance work: hot paths are only as fast as we can
// prove them to be.
//
// All types are safe for concurrent use. Counters and gauges are single
// atomic words; histograms take one atomic add per observation. Scrapes
// never block writers for more than a map lookup.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with a type, help text and (for vectors) a
// set of labelled children.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge" or "histogram"
	labels []string

	mu       sync.Mutex
	children map[string]interface{} // joined label values → metric
	fn       func() float64         // callback metrics (GaugeFunc)
	buckets  []float64              // histogram upper bounds
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry the daemons expose.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Library instrumentation that
// is not handed an explicit registry records here, and the daemons' admin
// servers expose it.
func Default() *Registry { return defaultRegistry }

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && !(i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use.
// Re-registering with a different type or label set panics: that is a
// programming error, not a runtime condition.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			labels:   append([]string(nil), labels...),
			children: make(map[string]interface{}),
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s%v, was %s%v",
			name, typ, labels, f.typ, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %s re-registered with labels %v, was %v",
				name, labels, f.labels))
		}
	}
	return f
}

// labelKey joins label values with an unprintable separator.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// child returns the labelled child metric, creating it with mk on first
// use.
func (f *family) child(values []string, mk func() interface{}) interface{} {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
	}
	return c
}

// atomicFloat is a float64 with atomic add/set via CAS on the bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (a *atomicFloat) Set(v float64)  { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) Value() float64 { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Value() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Set(v) }

// Add adjusts the value by v (use a negative v to decrement).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Value() }

// Histogram counts observations into preset cumulative buckets.
type Histogram struct {
	buckets []float64 // upper bounds, sorted ascending
	counts  []atomic.Uint64
	sum     atomicFloat
	count   atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose upper bound admits v.
	i := sort.SearchFloat64s(h.buckets, v)
	if i < len(h.buckets) {
		h.counts[i].Add(1)
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	return f.child(nil, func() interface{} { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	return f.child(nil, func() interface{} { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// the cheap way to export an existing counter or length without touching
// the hot path at all.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or fetches) an unlabelled histogram with the given
// bucket upper bounds (a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = normalizeBuckets(buckets)
	}
	bs := f.buckets
	f.mu.Unlock()
	return f.child(nil, func() interface{} { return newHistogram(bs) }).(*Histogram)
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", labels)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() interface{} { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, "gauge", labels)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() interface{} { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labelled histogram family sharing
// one bucket layout.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, "histogram", labels)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = normalizeBuckets(buckets)
	}
	f.mu.Unlock()
	return &HistogramVec{f}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	v.f.mu.Lock()
	bs := v.f.buckets
	v.f.mu.Unlock()
	return v.f.child(values, func() interface{} { return newHistogram(bs) }).(*Histogram)
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Uint64, len(buckets))}
}

// normalizeBuckets sorts, dedups and strips +Inf (implicit).
func normalizeBuckets(buckets []float64) []float64 {
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	out := bs[:0]
	for _, b := range bs {
		if math.IsInf(b, +1) {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == b {
			continue
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		out = append(out, 1)
	}
	return out
}

// LabeledValue is one child metric's scalar reading: the label values
// (aligned with the family's label names) and the value — counter and
// gauge values directly, a histogram's observation count.
type LabeledValue struct {
	Labels []string
	Value  float64
}

// Samples snapshots family name for programmatic readers (the SLO
// evaluator, tests): the family's label names and every child's current
// scalar. A missing family returns (nil, nil) — callers treat that as
// "no traffic yet", not an error, because vec children materialize
// lazily on first use.
func (r *Registry) Samples(name string) (labels []string, values []LabeledValue) {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return nil, nil
	}
	f.mu.Lock()
	labels = append([]string(nil), f.labels...)
	keys := make([]string, 0, len(f.children))
	children := make([]interface{}, 0, len(f.children))
	for k, c := range f.children {
		keys = append(keys, k)
		children = append(children, c)
	}
	f.mu.Unlock()
	values = make([]LabeledValue, 0, len(children))
	for i, c := range children {
		var v float64
		switch m := c.(type) {
		case *Counter:
			v = m.Value()
		case *Gauge:
			v = m.Value()
		case *Histogram:
			v = float64(m.Count())
		default:
			continue
		}
		var lv []string
		if keys[i] != "" || len(labels) > 0 {
			lv = strings.Split(keys[i], "\xff")
		}
		values = append(values, LabeledValue{Labels: lv, Value: v})
	}
	return labels, values
}

// DefBuckets mirrors the Prometheus client default: general-purpose
// latency buckets from 5 ms to 10 s.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// DurationBuckets spans microseconds to a minute — suitable for the
// calibration stages, which range from sub-millisecond simulated sweeps
// to multi-second captures.
var DurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1, 5, 15, 60,
}

// ExpBuckets returns n buckets starting at start, each factor times the
// previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LinearBuckets returns n buckets starting at start, spaced width apart.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		panic("obs: LinearBuckets wants n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start += width
	}
	return out
}
