package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge (CAS over the bit pattern). Hot paths
// that track a level (cache entries, in-flight tasks) use this instead of
// recomputing the level and calling Set under a lock.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultBuckets cover the reward/rate quantities of the pipeline: rewards
// live in roughly [-1, 1], rates in [0, 1].
var DefaultBuckets = []float64{-0.5, -0.2, -0.1, -0.05, -0.01, 0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1}

// Histogram is a fixed-bucket histogram safe for concurrent observation.
// Bucket i counts samples v <= Bounds[i]; one implicit +Inf bucket catches
// the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket counts, the last entry being the
// implicit +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket, Prometheus histogram_quantile style. The
// lowest bucket interpolates from its upper bound downward by one bucket
// width; the +Inf bucket clamps to the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank && c > 0 {
			if i >= len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			upper := h.bounds[i]
			var lower float64
			if i == 0 {
				width := 1.0
				if len(h.bounds) > 1 {
					width = h.bounds[1] - h.bounds[0]
				}
				lower = upper - width
			} else {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lower + (upper-lower)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// maxSeriesLen bounds every series; appends past the cap are counted as
// dropped rather than stored, so long ScaleFull runs cannot grow memory
// without bound.
const maxSeriesLen = 16384

// Series is an append-only, bounded sequence of float64 samples — the
// report-side representation of learning curves and per-epoch traces.
type Series struct {
	mu      sync.Mutex
	vals    []float64
	dropped int64
}

// Append records one value (dropped silently past maxSeriesLen).
func (s *Series) Append(v float64) {
	s.mu.Lock()
	if len(s.vals) < maxSeriesLen {
		s.vals = append(s.vals, v)
	} else {
		s.dropped++
	}
	s.mu.Unlock()
}

// Values returns a copy of the recorded values.
func (s *Series) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.vals...)
}

// Dropped returns how many appends exceeded the cap.
func (s *Series) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Registry holds named metrics. Metric names may carry Prometheus-style
// labels baked into the name via Name (e.g. `x_total{kind="SeqScan"}`).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	series   map[string]*Series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it with the given
// bucket bounds (nil for DefaultBuckets) on first use. Later calls ignore
// the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Series returns the named series, registering it on first use.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// Reset zeroes every metric value while keeping the registered objects, so
// handles cached by instrumented packages stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.bits.Store(0)
	}
	for _, s := range r.series {
		s.mu.Lock()
		s.vals = s.vals[:0]
		s.dropped = 0
		s.mu.Unlock()
	}
}

// Name bakes label pairs into a metric name in canonical Prometheus form:
// Name("x_total", "kind", "SeqScan") == `x_total{kind="SeqScan"}`. Labels
// are sorted by key so equal label sets always produce equal names.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// baseName strips the label section from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// sortedNames returns the keys of m (a map[string]*Counter etc.) in sorted
// order.
func sortedNames[M ~map[string]V, V any](m M) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// labelJoin rewrites `base{a="1"}` to `base_bucket{a="1",le="x"}`-style
// names for Prometheus histogram exposition.
func labelJoin(name, suffix, extraK, extraV string) string {
	base := baseName(name)
	labels := ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		labels = name[i+1 : len(name)-1]
	}
	if extraK != "" {
		ev := fmt.Sprintf("%s=%q", extraK, extraV)
		if labels != "" {
			labels += "," + ev
		} else {
			labels = ev
		}
	}
	if labels == "" {
		return base + suffix
	}
	return base + suffix + "{" + labels + "}"
}

// WriteProm writes the registry in Prometheus text exposition format,
// byte-deterministically: metrics are sorted by their registered name, and
// every labelled name is registered through Name, which sorts its labels by
// key, so two registries holding the same values always render identically
// regardless of registration order. Series are exported as gauges of their
// length (the values themselves belong in run reports, not scrapes).
func (r *Registry) WriteProm(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()

	seen := map[string]bool{}
	for _, n := range sortedNames(r.counters) {
		if b := baseName(n); !seen[b] {
			seen[b] = true
			fmt.Fprintf(w, "# TYPE %s counter\n", b)
		}
		fmt.Fprintf(w, "%s %d\n", n, r.counters[n].Value())
	}

	for _, n := range sortedNames(r.gauges) {
		if b := baseName(n); !seen[b] {
			seen[b] = true
			fmt.Fprintf(w, "# TYPE %s gauge\n", b)
		}
		fmt.Fprintf(w, "%s %g\n", n, r.gauges[n].Value())
	}

	for _, n := range sortedNames(r.hists) {
		h := r.hists[n]
		if b := baseName(n); !seen[b] {
			seen[b] = true
			fmt.Fprintf(w, "# TYPE %s histogram\n", b)
		}
		cum := int64(0)
		counts := h.BucketCounts()
		for i, bound := range h.bounds {
			cum += counts[i]
			fmt.Fprintf(w, "%s %d\n", labelJoin(n, "_bucket", "le", fmt.Sprintf("%g", bound)), cum)
		}
		cum += counts[len(counts)-1]
		fmt.Fprintf(w, "%s %d\n", labelJoin(n, "_bucket", "le", "+Inf"), cum)
		fmt.Fprintf(w, "%s %g\n", labelJoin(n, "_sum", "", ""), h.Sum())
		fmt.Fprintf(w, "%s %d\n", labelJoin(n, "_count", "", ""), h.Count())
	}

	for _, n := range sortedNames(r.series) {
		s := r.series[n]
		s.mu.Lock()
		l := len(s.vals)
		s.mu.Unlock()
		fmt.Fprintf(w, "%s %d\n", labelJoin(n, "_points", "", ""), l)
	}
}

// HistSnapshot is the JSON form of one histogram.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(bounds)+1; last is +Inf
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
}

// MetricsSnapshot is a point-in-time JSON-marshalable view of a registry.
// encoding/json sorts map keys, so equal registries marshal identically.
type MetricsSnapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Series     map[string][]float64    `json:"series,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() *MetricsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &MetricsSnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
		Series:     make(map[string][]float64, len(r.series)),
	}
	for n, c := range r.counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		hs := HistSnapshot{Bounds: h.Bounds(), Counts: h.BucketCounts(), Count: h.Count(), Sum: h.Sum()}
		if hs.Count > 0 {
			hs.P50 = h.Quantile(0.5)
			hs.P95 = h.Quantile(0.95)
		}
		snap.Histograms[n] = hs
	}
	for n, s := range r.series {
		snap.Series[n] = s.Values()
	}
	return snap
}

// atomicFloat is an atomic float64 built on CAS over the bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(d float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
