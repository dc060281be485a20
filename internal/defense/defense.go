// Package defense implements DBA-side mitigations against workload
// poisoning, the deployment guidance the paper's study is meant to enable
// (§1: the investigation "facilitates the DBAs to deploy a more robust
// learning-based IA"). A Screener splits an incoming training batch into
// the queries safe to learn from and a Report of the dropped ones:
//
//   - Sanitizer flags queries whose indexing behavior is anomalous relative
//     to a trusted reference workload — the signature PIPA's toxic queries
//     necessarily carry (optimized by columns the reference workload never
//     rewards);
//   - defense/trim fits the advisor robustly and drops high-loss queries;
//   - Chain stacks screeners.
//
// A screener defends an advisor through guard.Config.Screener, which runs it
// before every guarded update (DESIGN.md §13.3). ScreenCleanWith measures a
// screener's false positives on vouched-clean traffic.
package defense

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/qgen"
	"repro/internal/sql"
	"repro/internal/workload"
)

// cleanDroppedTotal counts false positives: queries a sanitizer dropped from
// a workload the caller vouches for as clean. Guard sweeps read it to report
// the defense's collateral damage alongside its poisoning catch rate.
var cleanDroppedTotal = obs.GetCounter("defense_clean_dropped_total")

// Report describes one screening pass.
type Report struct {
	// Strategy names the screener that produced the report ("sanitizer",
	// "trim", "sanitizer+trim", ...), so a quarantine or sweep row can be
	// traced back to the defense that made the call.
	Strategy string
	Kept     int
	Dropped  int
	// Reasons maps each dropped query's text to why it was dropped.
	Reasons map[string]string
}

// String summarizes the report. Reasons are aggregated and sorted, so the
// output is deterministic regardless of map iteration order.
func (r *Report) String() string {
	var b strings.Builder
	strategy := r.Strategy
	if strategy == "" {
		strategy = "screen"
	}
	fmt.Fprintf(&b, "%s: kept %d, dropped %d", strategy, r.Kept, r.Dropped)
	if r.Dropped > 0 {
		b.WriteString(" (")
		reasons := make(map[string]int)
		for _, why := range r.Reasons {
			reasons[why]++
		}
		keys := make([]string, 0, len(reasons))
		for k := range reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s ×%d", k, reasons[k])
		}
		b.WriteString(")")
	}
	return b.String()
}

// Sanitizer screens training workloads against a trusted reference.
type Sanitizer struct {
	WhatIf *cost.WhatIf

	// Reference is the trusted workload (e.g. last vetted training set).
	Reference *workload.Workload

	// MinColumnSupport is the minimum frequency-weighted share a query's
	// optimal column must have among the reference workload's sargable
	// columns for the query to be trusted. PIPA's mid-ranked targets sit
	// far below the reference's head columns.
	MinColumnSupport float64

	// MaxSharpness drops queries whose best single index removes more than
	// this fraction of their cost — the engineered razor-sharp benefit
	// profile index-aware toxic queries need to redirect training.
	MaxSharpness float64

	refSupport map[string]float64
	// trustedOptimal is the set of columns that are optimal for some
	// reference query (plus single-hop FK relatives). A new query whose
	// optimal column falls outside this set would, if learned from, steer
	// the advisor somewhere the trusted workload never rewards — PIPA's
	// signature move (§5).
	trustedOptimal map[string]bool
}

// NewSanitizer builds a sanitizer with conservative defaults.
func NewSanitizer(w *cost.WhatIf, reference *workload.Workload) *Sanitizer {
	s := &Sanitizer{
		WhatIf:           w,
		Reference:        reference,
		MinColumnSupport: 0.01,
		MaxSharpness:     0.93,
	}
	s.rebuild()
	return s
}

// rebuild recomputes the reference-derived statistics.
func (s *Sanitizer) rebuild() {
	s.refSupport = columnSupport(s.Reference)
	s.trustedOptimal = make(map[string]bool)
	for _, q := range s.Reference.Queries {
		if opt, _, ok := qgen.OptimalSingleColumn(s.WhatIf, q); ok {
			s.trustedOptimal[opt] = true
		}
	}
}

// columnSupport computes the frequency-weighted share of sargable
// appearances per column.
func columnSupport(w *workload.Workload) map[string]float64 {
	support := make(map[string]float64)
	total := 0.0
	for i, q := range w.Queries {
		f := w.Freqs[i]
		for _, c := range q.SargableColumns() {
			support[c] += f
			total += f
		}
	}
	if total > 0 {
		for c := range support {
			support[c] /= total
		}
	}
	return support
}

// Name implements Screener.
func (s *Sanitizer) Name() string { return "sanitizer" }

// Screen splits the incoming workload into trusted and suspicious queries.
// Queries already present in the reference are always kept.
func (s *Sanitizer) Screen(incoming *workload.Workload) (*workload.Workload, *Report) {
	kept := &workload.Workload{}
	report := &Report{Strategy: s.Name(), Reasons: make(map[string]string)}

	refTexts := make(map[string]bool, s.Reference.Len())
	for _, q := range s.Reference.Queries {
		refTexts[q.String()] = true
	}

	for i, q := range incoming.Queries {
		if refTexts[q.String()] {
			kept.Add(q, incoming.Freqs[i])
			report.Kept++
			continue
		}
		if why, bad := s.suspicious(q); bad {
			report.Dropped++
			report.Reasons[q.String()] = why
			continue
		}
		kept.Add(q, incoming.Freqs[i])
		report.Kept++
	}
	return kept, report
}

// suspicious applies the two anomaly tests to one query.
func (s *Sanitizer) suspicious(q *sql.Query) (string, bool) {
	opt, reduction, ok := qgen.OptimalSingleColumn(s.WhatIf, q)
	if !ok {
		return "", false // unindexable queries cannot poison index selection
	}
	if reduction > s.MaxSharpness {
		return "sharp-benefit", true
	}
	if s.refSupport[opt] < s.MinColumnSupport {
		return "unsupported-column", true
	}
	if !s.trustedOptimal[opt] {
		return "untrusted-optimal-column", true
	}
	return "", false
}
