// Package workload defines workloads — frequency-weighted query sets — and
// the benchmark template suites used to construct them. Normal (training /
// target) workloads follow the paper's SWIRL-style protocol (§6.1): populate
// all templates of the benchmark and draw query frequencies uniformly at
// random.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// Workload is an ordered multiset of queries with frequencies.
type Workload struct {
	Queries []*sql.Query
	Freqs   []float64
}

// New builds a workload with unit frequencies.
func New(queries ...*sql.Query) *Workload {
	w := &Workload{Queries: queries, Freqs: make([]float64, len(queries))}
	for i := range w.Freqs {
		w.Freqs[i] = 1
	}
	return w
}

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.Queries) }

// Add appends a query with the given frequency.
func (w *Workload) Add(q *sql.Query, freq float64) {
	w.Queries = append(w.Queries, q)
	w.Freqs = append(w.Freqs, freq)
}

// Merge returns a new workload containing this workload followed by other.
// This is the "{W, Ŵ}" union on which a poisoned advisor retrains.
func (w *Workload) Merge(other *Workload) *Workload {
	out := &Workload{
		Queries: make([]*sql.Query, 0, len(w.Queries)+len(other.Queries)),
		Freqs:   make([]float64, 0, len(w.Freqs)+len(other.Freqs)),
	}
	out.Queries = append(append(out.Queries, w.Queries...), other.Queries...)
	out.Freqs = append(append(out.Freqs, w.Freqs...), other.Freqs...)
	return out
}

// Clone returns a copy sharing the (immutable) query pointers.
func (w *Workload) Clone() *Workload {
	return &Workload{
		Queries: append([]*sql.Query(nil), w.Queries...),
		Freqs:   append([]float64(nil), w.Freqs...),
	}
}

// Columns returns the distinct sargable columns across all queries, sorted,
// so callers that enumerate candidates from them visit the same order on
// every run.
func (w *Workload) Columns() []string {
	set := make(map[string]bool)
	for _, q := range w.Queries {
		for _, c := range q.SargableColumns() {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// String renders a short human-readable summary.
func (w *Workload) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload[%d queries]", len(w.Queries))
	return b.String()
}

// Template is a parameterized benchmark query: Build instantiates it with
// fresh random parameters drawn from the schema's column domains.
type Template struct {
	Name  string
	Build func(s *catalog.Schema, rng *rand.Rand) string
}

// Instantiate builds, parses, and resolves one instance of the template.
// Template text is produced by our own builders, so failures are programmer
// errors and panic.
func (t Template) Instantiate(s *catalog.Schema, rng *rand.Rand) *sql.Query {
	src := t.Build(s, rng)
	q, err := sql.ParseResolved(src, s)
	if err != nil {
		panic(fmt.Sprintf("workload: template %s produced invalid SQL %q: %v", t.Name, src, err))
	}
	return q
}

// GenerateNormal creates a normal workload of n queries per the paper's
// protocol: templates are populated in a random order without replacement
// (re-permuted once exhausted, so all templates participate when
// n >= len(templates)) and each query receives a frequency drawn uniformly
// from [1, 10).
func GenerateNormal(s *catalog.Schema, templates []Template, n int, rng *rand.Rand) *Workload {
	if len(templates) == 0 {
		panic("workload: no templates")
	}
	w := &Workload{}
	var order []int
	for i := 0; i < n; i++ {
		if len(order) == 0 {
			order = rng.Perm(len(templates))
		}
		t := templates[order[0]]
		order = order[1:]
		w.Add(t.Instantiate(s, rng), 1+9*rng.Float64())
	}
	return w
}

// TemplatesFor returns the benchmark template suite matching the schema.
func TemplatesFor(s *catalog.Schema) []Template {
	switch s.Name {
	case "tpch":
		return TPCHTemplates()
	case "tpcds":
		return TPCDSTemplates()
	default:
		panic(fmt.Sprintf("workload: no templates for schema %q", s.Name))
	}
}

// DefaultSize returns the paper's per-benchmark normal workload size:
// N = 18 for TPC-H, N = 90 for TPC-DS (§6.1).
func DefaultSize(s *catalog.Schema) int {
	if s.Name == "tpcds" {
		return 90
	}
	return 18
}

// --- random parameter helpers shared by the template builders ---

// eqVal draws a random value from the column's domain for an equality
// predicate.
func eqVal(s *catalog.Schema, col string, rng *rand.Rand) int64 {
	lo, hi := s.ColumnDomain(col)
	if hi <= lo {
		return lo
	}
	return lo + rng.Int63n(hi-lo)
}

// rangeFrac draws a [lo, hi] interval covering roughly frac of the column's
// domain, uniformly positioned.
func rangeFrac(s *catalog.Schema, col string, frac float64, rng *rand.Rand) (int64, int64) {
	lo, hi := s.ColumnDomain(col)
	width := hi - lo
	if width <= 1 {
		return lo, lo
	}
	span := int64(float64(width) * frac)
	if span < 1 {
		span = 1
	}
	maxStart := width - span
	start := lo
	if maxStart > 0 {
		start = lo + rng.Int63n(maxStart)
	}
	return start, start + span - 1
}

// gtThreshold returns a threshold t such that "col > t" selects roughly frac
// of the column's domain, with ±20% jitter.
func gtThreshold(s *catalog.Schema, col string, frac float64, rng *rand.Rand) int64 {
	lo, hi := s.ColumnDomain(col)
	width := float64(hi - lo)
	f := frac * (0.8 + 0.4*rng.Float64())
	if f > 1 {
		f = 1
	}
	t := hi - int64(width*f) - 1
	if t < lo {
		t = lo
	}
	return t
}

// inList draws k distinct values from the column's domain.
func inList(s *catalog.Schema, col string, k int, rng *rand.Rand) []int64 {
	lo, hi := s.ColumnDomain(col)
	width := hi - lo
	if width <= 0 {
		width = 1
	}
	if int64(k) > width {
		k = int(width)
	}
	seen := make(map[int64]bool, k)
	out := make([]int64, 0, k)
	for len(out) < k {
		v := lo + rng.Int63n(width)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// fmtIn renders an IN list.
func fmtIn(vals []int64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ", ")
}
