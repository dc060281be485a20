// Package obs is the telemetry substrate of the reproduction: a metrics
// registry (atomic counters, gauges, fixed-bucket histograms and bounded
// series), context-propagated traces with an injectable clock, a flight
// recorder retaining finished traces, and structured run reports. Every hot
// layer of the pipeline — what-if costing, advisor training, PIPA
// probing/injecting, query generation, plan execution — feeds the
// process-wide Default observer. Experiment runs (one trace per experiment)
// and the serving daemon (one trace per request) share that one model;
// BuildReport folds both into a JSON run report, also served live with the
// Prometheus/pprof endpoints.
//
// Design constraints, in order: (1) hot-path cost must be a single atomic
// add — callers cache *Counter handles at package init — and an untraced
// context costs one nil check; (2) determinism — telemetry never feeds back
// into experiment behaviour, and trace clocks are injectable so tests stay
// reproducible (DESIGN.md §5); (3) zero dependencies beyond the stdlib.
package obs

// Observer bundles one metrics registry and one flight recorder retaining
// finished traces.
type Observer struct {
	Metrics *Registry
	Flight  *FlightRecorder
}

// New creates an observer.
func New() *Observer {
	return &Observer{
		Metrics: NewRegistry(),
		Flight:  NewFlightRecorder(DefaultFlightCap),
	}
}

// Default is the process-wide observer all instrumented packages feed.
var Default = New()

// GetCounter returns (registering if needed) a counter on the Default
// registry. Hot paths call this once at package init and keep the handle.
func GetCounter(name string) *Counter { return Default.Metrics.Counter(name) }

// GetGauge returns a gauge handle on the Default registry.
func GetGauge(name string) *Gauge { return Default.Metrics.Gauge(name) }

// SetGauge sets a Default-registry gauge.
func SetGauge(name string, v float64) { Default.Metrics.Gauge(name).Set(v) }

// Record appends one value to a Default-registry series.
func Record(name string, v float64) { Default.Metrics.Series(name).Append(v) }
