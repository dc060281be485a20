package obs

import (
	"encoding/json"
	"net/http"
	"sync"
)

// Flight-recorder counters: how many traces were retained and how many were
// pushed out of the ring by newer ones.
var (
	flightRecorded = GetCounter("obs_flight_recorded_total")
	flightEvicted  = GetCounter("obs_flight_evicted_total")
)

// FlightRecord is one retained trace, stamped with its admission sequence
// number so dumps order deterministically even across ring wraps.
type FlightRecord struct {
	Seq uint64 `json:"seq"`
	*TraceSnapshot
}

// FlightRecorder is the poisoning-forensics flight recorder (DESIGN.md §11):
// a bounded ring buffer retaining the complete span tree, trace attributes
// and anomaly markers of every anomalous request — shed, deadline, degraded
// tier, quarantine hit, rollback, breaker trip — so a live incident is
// replayable down to the batch fingerprint and canary regression after the
// fact. With record-all enabled it retains every observed trace (debugging
// and smoke tests). Safe for concurrent use.
type FlightRecorder struct {
	mu        sync.Mutex
	cap       int
	recs      []*FlightRecord // oldest first
	seq       uint64
	evicted   uint64
	recordAll bool
}

// DefaultFlightCap bounds the Default observer's recorder.
const DefaultFlightCap = 256

// NewFlightRecorder builds a recorder retaining at most capacity traces
// (<= 0 selects DefaultFlightCap).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{cap: capacity}
}

// SetRecordAll toggles retention of non-anomalous traces.
func (f *FlightRecorder) SetRecordAll(all bool) {
	f.mu.Lock()
	f.recordAll = all
	f.mu.Unlock()
}

// Observe snapshots and retains t when it is anomalous (or record-all is
// on), reporting whether it was retained. Nil traces are ignored.
func (f *FlightRecorder) Observe(t *Trace) bool {
	if f == nil || t == nil {
		return false
	}
	f.mu.Lock()
	keep := f.recordAll
	f.mu.Unlock()
	if !keep && len(t.Anomalies()) == 0 {
		return false
	}
	snap := t.Snapshot()
	f.mu.Lock()
	f.seq++
	f.recs = append(f.recs, &FlightRecord{Seq: f.seq, TraceSnapshot: snap})
	f.trimLocked()
	f.mu.Unlock()
	flightRecorded.Inc()
	return true
}

func (f *FlightRecorder) trimLocked() {
	for len(f.recs) > f.cap {
		f.recs = f.recs[1:]
		f.evicted++
		flightEvicted.Inc()
	}
}

// Records returns the retained traces, oldest first.
func (f *FlightRecorder) Records() []*FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*FlightRecord(nil), f.recs...)
}

// Find returns the retained record with the given trace ID, or nil. When a
// trace was recorded more than once (e.g. record-all plus a later anomaly),
// the newest record wins.
func (f *FlightRecorder) Find(traceID string) *FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.recs) - 1; i >= 0; i-- {
		if f.recs[i].TraceID == traceID {
			return f.recs[i]
		}
	}
	return nil
}

// Len returns how many traces are currently retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.recs)
}

// Evicted returns how many records the ring has pushed out.
func (f *FlightRecorder) Evicted() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evicted
}

// Reset drops every record and rewinds the sequence (record-all and the cap
// survive).
func (f *FlightRecorder) Reset() {
	f.mu.Lock()
	f.recs = nil
	f.seq = 0
	f.evicted = 0
	f.mu.Unlock()
}

// flightDump is the GET /debug/traces body.
type flightDump struct {
	Cap     int             `json:"cap"`
	Len     int             `json:"len"`
	Evicted uint64          `json:"evicted"`
	Traces  []*FlightRecord `json:"traces"`
}

// ServeHTTP serves the recorder at GET /debug/traces: the full dump by
// default, one record with ?trace=<id> (404 when it is not retained).
func (f *FlightRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if id := r.URL.Query().Get("trace"); id != "" {
		rec := f.Find(id)
		if rec == nil {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "trace not found: " + id})
			return
		}
		_ = json.NewEncoder(w).Encode(rec)
		return
	}
	f.mu.Lock()
	dump := flightDump{Cap: f.cap, Len: len(f.recs), Evicted: f.evicted,
		Traces: append([]*FlightRecord{}, f.recs...)}
	f.mu.Unlock()
	_ = json.NewEncoder(w).Encode(dump)
}
