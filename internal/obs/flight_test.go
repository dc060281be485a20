package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func flightTrace(name string, anomalies ...string) *Trace {
	tr := NewTrace(name, NewFakeClock(time.Millisecond).Now)
	for _, a := range anomalies {
		tr.MarkAnomaly(a)
	}
	tr.End()
	return tr
}

func TestFlightAnomalyGating(t *testing.T) {
	f := NewFlightRecorder(8)
	if f.Observe(flightTrace("recommend")) {
		t.Fatal("clean trace retained without record-all")
	}
	if !f.Observe(flightTrace("recommend", "shed")) {
		t.Fatal("anomalous trace dropped")
	}
	if f.Len() != 1 {
		t.Fatalf("len = %d, want 1", f.Len())
	}
	f.SetRecordAll(true)
	if !f.Observe(flightTrace("recommend")) {
		t.Fatal("record-all dropped a clean trace")
	}
	if f.Observe(nil) {
		t.Fatal("nil trace retained")
	}
}

func TestFlightRingEviction(t *testing.T) {
	f := NewFlightRecorder(3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := flightTrace("recommend", "shed")
		ids = append(ids, tr.ID())
		f.Observe(tr)
	}
	if f.Len() != 3 || f.Evicted() != 2 {
		t.Fatalf("len = %d, evicted = %d; want 3, 2", f.Len(), f.Evicted())
	}
	recs := f.Records()
	// Oldest first, and the two oldest traces are gone.
	for i, rec := range recs {
		if rec.TraceID != ids[i+2] {
			t.Fatalf("record %d = %s, want %s", i, rec.TraceID, ids[i+2])
		}
	}
	if recs[0].Seq >= recs[1].Seq || recs[1].Seq >= recs[2].Seq {
		t.Fatalf("sequence not monotonic: %d %d %d", recs[0].Seq, recs[1].Seq, recs[2].Seq)
	}
	if f.Find(ids[0]) != nil {
		t.Fatal("evicted trace still findable")
	}
	if f.Find(ids[4]) == nil {
		t.Fatal("retained trace not findable")
	}
	f.Reset()
	if f.Len() != 0 || f.Evicted() != 0 {
		t.Fatalf("reset left records: %d/%d", f.Len(), f.Evicted())
	}
}

func TestFlightServeHTTP(t *testing.T) {
	f := NewFlightRecorder(8)
	tr := flightTrace("update", "rollback")
	f.Observe(tr)

	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("dump status = %d", rec.Code)
	}
	var dump struct {
		Len    int `json:"len"`
		Traces []struct {
			TraceID   string   `json:"trace_id"`
			Anomalies []string `json:"anomalies"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Len != 1 || dump.Traces[0].TraceID != tr.ID() || dump.Traces[0].Anomalies[0] != "rollback" {
		t.Fatalf("dump = %+v", dump)
	}

	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+tr.ID(), nil))
	if rec.Code != 200 {
		t.Fatalf("lookup status = %d", rec.Code)
	}
	var one FlightRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if one.TraceID != tr.ID() || one.Root == nil || one.Root.Name != "update" {
		t.Fatalf("lookup = %+v", one)
	}

	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace=deadbeef", nil))
	if rec.Code != 404 {
		t.Fatalf("missing trace status = %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/traces", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status = %d, want 405", rec.Code)
	}
}
