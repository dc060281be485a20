package obs

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
)

// PhaseTime aggregates every span sharing one name: how often the phase ran
// and its total wall time.
type PhaseTime struct {
	Count   int64 `json:"count"`
	TotalUs int64 `json:"total_us"`
}

// Report is the structured run report a tool emits beside its textual
// results: per-phase wall time, the flight recorder's retained traces (one
// per finished experiment in the batch tools, the anomalous or sampled
// requests in the daemon), and a snapshot of every metric (what-if call/hit
// counts, advisor reward series, qgen acceptance counters, ...). Maps
// marshal with sorted keys, so two identical runs under the same Clock
// produce byte-identical reports.
type Report struct {
	Tool   string            `json:"tool"`
	Labels map[string]string `json:"labels,omitempty"` // free-form run context (experiment ids, scale, ...)

	Phases  map[string]PhaseTime `json:"phases,omitempty"`
	Metrics *MetricsSnapshot     `json:"metrics,omitempty"`

	// Traces is the flight recorder's dump at report time, oldest first
	// (DESIGN.md §11).
	Traces []*FlightRecord `json:"traces,omitempty"`
}

// BuildReport snapshots the observer into a report. Phases fold every span
// of every retained trace; phase names are span names with any ":detail"
// suffix stripped, so "experiment:fig1" and "experiment:fig7" aggregate
// under "experiment".
func (o *Observer) BuildReport(tool string, labels map[string]string) *Report {
	r := &Report{
		Tool:    tool,
		Labels:  labels,
		Metrics: o.Metrics.Snapshot(),
		Traces:  o.Flight.Records(),
		Phases:  make(map[string]PhaseTime),
	}
	var walk func(s *TSpanSnapshot)
	walk = func(s *TSpanSnapshot) {
		name := s.Name
		if i := strings.IndexByte(name, ':'); i > 0 {
			name = name[:i]
		}
		pt := r.Phases[name]
		pt.Count++
		if s.DurUs > 0 {
			pt.TotalUs += s.DurUs
		}
		r.Phases[name] = pt
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, rec := range r.Traces {
		walk(rec.Root)
	}
	return r
}

// JSON marshals the report with stable indentation.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// CounterValue reads one counter from the report's metric snapshot (0 if
// absent).
func (r *Report) CounterValue(name string) int64 {
	if r.Metrics == nil {
		return 0
	}
	return r.Metrics.Counters[name]
}

// CountersWithPrefix sums every counter whose name (ignoring labels) equals
// base, returning the per-name breakdown sorted by name.
func (r *Report) CountersWithPrefix(base string) (total int64, names []string) {
	if r.Metrics == nil {
		return 0, nil
	}
	for n, v := range r.Metrics.Counters {
		if baseName(n) == base {
			total += v
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return total, names
}
