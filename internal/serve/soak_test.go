package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/guard"
	"repro/internal/obs"
)

// counterDelta samples the process-global serving counters so assertions
// survive other tests in the package having already bumped them.
type counterDelta struct {
	admitted, shed, timeouts, full, cached, heuristic int64
}

func sampleCounters() counterDelta {
	return counterDelta{
		admitted:  admittedTotal.Value(),
		shed:      shedTotal.Value(),
		timeouts:  timeoutsTotal.Value(),
		full:      tierFull.Value(),
		cached:    tierCached.Value(),
		heuristic: tierHeuristic.Value(),
	}
}

func (c counterDelta) since(base counterDelta) counterDelta {
	return counterDelta{
		admitted:  c.admitted - base.admitted,
		shed:      c.shed - base.shed,
		timeouts:  c.timeouts - base.timeouts,
		full:      c.full - base.full,
		cached:    c.cached - base.cached,
		heuristic: c.heuristic - base.heuristic,
	}
}

// TestSoakPastCapacity drives the daemon at 2× its admission capacity and
// checks the overload contract: every request gets a well-formed answer or a
// 429, nothing hangs or is silently dropped, and the obs counters reconcile
// exactly with the driver's request count.
//
// The load is made deterministic by gating every advisor (replicas and
// fallback) on a token channel: phase 1 parks exactly QueueDepth requests in
// flight, phase 2's QueueDepth requests then shed deterministically, and
// opening the gate lets phase 1 finish.
func TestSoakPastCapacity(t *testing.T) {
	const depth = 8
	gate := make(chan struct{})
	env := newTestServer(t, gate, func(c *Config) {
		c.QueueDepth = depth
		c.Replicas = 1
		c.DefaultTimeout = 30 * time.Second
		c.DegradeAfter = 5 * time.Millisecond
		c.Fallback = newStub(gate) // heuristic tier blocks too: slots stay held
	}, nil)
	base := sampleCounters()

	type answer struct {
		code int
		body []byte
	}
	phase1 := make(chan answer, depth)
	var wg sync.WaitGroup
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := postJSON(t, env.ts.URL+"/v1/recommend", oneQuery)
			phase1 <- answer{code, body}
		}()
	}
	waitUntil(t, 10*time.Second, "all slots held", func() bool {
		return env.srv.Admission().InUse() == depth
	})

	// Phase 2: capacity is exhausted, so every extra request must shed.
	for i := 0; i < depth; i++ {
		code, body := postJSON(t, env.ts.URL+"/v1/recommend", oneQuery)
		if code != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status %d want 429 (body %s)", i, code, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Fatalf("overload request %d: 429 body not well-formed: %s", i, body)
		}
	}

	close(gate) // open the floodgate: phase 1 completes
	wg.Wait()
	close(phase1)
	for a := range phase1 {
		if a.code != http.StatusOK {
			t.Errorf("admitted request: status %d body %s", a.code, a.body)
			continue
		}
		var rr RecommendResponse
		if err := json.Unmarshal(a.body, &rr); err != nil {
			t.Errorf("admitted request: bad body %s: %v", a.body, err)
			continue
		}
		switch rr.Tier {
		case "full", "cached", "heuristic":
		default:
			t.Errorf("admitted request: unknown tier %q", rr.Tier)
		}
		if len(rr.Indexes) == 0 {
			t.Errorf("admitted request: empty recommendation")
		}
	}

	// Exact reconciliation against the driver: depth admitted, depth shed,
	// every admitted answer on some tier, nothing timed out, nothing left
	// in flight.
	d := sampleCounters().since(base)
	if d.admitted != depth || d.shed != depth {
		t.Errorf("admitted=%d shed=%d, want %d and %d", d.admitted, d.shed, depth, depth)
	}
	if got := d.full + d.cached + d.heuristic; got != depth {
		t.Errorf("tier answers %d (full=%d cached=%d heuristic=%d), want %d",
			got, d.full, d.cached, d.heuristic, depth)
	}
	if d.full < 1 {
		t.Errorf("full-tier answers %d, want >= 1 (the replica holder)", d.full)
	}
	if d.timeouts != 0 {
		t.Errorf("timeouts %d, want 0", d.timeouts)
	}
	if env.srv.Admission().InUse() != 0 {
		t.Errorf("slots still held after soak: %d", env.srv.Admission().InUse())
	}
	if g := obs.GetGauge("serve_inflight").Value(); g != 0 {
		t.Errorf("serve_inflight = %f, want 0", g)
	}
}

// TestLiveRollbackUnderLoad poisons /v1/update while /v1/recommend traffic
// is in flight: the canary gate must roll the update back without a model
// swap, and every concurrent recommendation must stay byte-identical to the
// pre-update answer. A clean update afterwards must swap.
func TestLiveRollbackUnderLoad(t *testing.T) {
	env := newTestServer(t, nil, func(c *Config) {
		c.Replicas = 2
		c.DefaultTimeout = 30 * time.Second
		c.DegradeAfter = 10 * time.Second // never degrade: every answer is full-tier
	}, nil)

	code, baseline := postJSON(t, env.ts.URL+"/v1/recommend", oneQuery)
	if code != http.StatusOK {
		t.Fatalf("baseline: status %d body %s", code, baseline)
	}
	// Answers must be byte-identical modulo the per-request trace ID.
	base := stripTraceID(baseline)

	stop := make(chan struct{})
	var (
		wg         sync.WaitGroup
		served     atomic.Int64
		mismatches atomic.Int64
		firstDiff  atomic.Pointer[string]
	)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := postJSON(t, env.ts.URL+"/v1/recommend", oneQuery)
				if code != http.StatusOK {
					mismatches.Add(1)
					s := fmt.Sprintf("status %d: %s", code, body)
					firstDiff.CompareAndSwap(nil, &s)
					continue
				}
				if stripTraceID(body) != base {
					mismatches.Add(1)
					s := string(body)
					firstDiff.CompareAndSwap(nil, &s)
				}
				served.Add(1)
			}
		}()
	}

	// Poison mid-traffic. The guard must roll back; no swap may happen.
	poison := fmt.Sprintf(`{"queries":["SELECT COUNT(*) FROM orders"],"freqs":[%d]}`, poisonFreq)
	code, body := postJSON(t, env.ts.URL+"/v1/update", poison)
	if code != http.StatusOK {
		t.Fatalf("poison update: status %d body %s", code, body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Outcome != "rolled-back" || ur.ModelVersion != 1 {
		t.Fatalf("poison update = %+v, want rolled-back at v1", ur)
	}
	// Keep traffic flowing a little past the rollback before stopping.
	waitUntil(t, 10*time.Second, "post-rollback traffic", func() bool {
		return served.Load() >= 40
	})
	close(stop)
	wg.Wait()

	if n := mismatches.Load(); n != 0 {
		diff := "<none captured>"
		if p := firstDiff.Load(); p != nil {
			diff = *p
		}
		t.Fatalf("%d answers diverged from the pre-update baseline during rollback; first: %s\nbaseline: %s",
			n, diff, baseline)
	}
	if served.Load() == 0 {
		t.Fatal("no concurrent traffic was served")
	}

	// A clean update must still commit and swap.
	code, body = postJSON(t, env.ts.URL+"/v1/update", oneQuery)
	if code != http.StatusOK {
		t.Fatalf("clean update: status %d body %s", code, body)
	}
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Outcome != "committed" || ur.ModelVersion != 2 {
		t.Fatalf("clean update = %+v, want committed at v2", ur)
	}
	code, body = postJSON(t, env.ts.URL+"/v1/recommend", oneQuery)
	if code != http.StatusOK {
		t.Fatalf("post-commit recommend: status %d", code)
	}
	var rr RecommendResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ModelVersion != 2 || stripTraceID(body) == base {
		t.Errorf("post-commit answer did not change: %s", body)
	}
}

// stripTraceID blanks the per-request trace_id field so answer bodies from
// different requests can be compared for semantic identity.
func stripTraceID(body []byte) string {
	return traceIDField.ReplaceAllString(string(body), `"trace_id":""`)
}

var traceIDField = regexp.MustCompile(`"trace_id":"[0-9a-f]*"`)

// TestPersistAndResume is the kill-and-resume contract: a committed update
// persists under ModelDir at commit time, and a fresh daemon over the same
// directory restores it via TryRestore and serves the same recommendation
// without retraining.
func TestPersistAndResume(t *testing.T) {
	dir := t.TempDir()
	env := newTestServer(t, nil, nil, func(g *guard.Config) {
		g.ModelDir = dir
	})

	// Commit one update (stub version 1 → 2) and record the answer.
	code, body := postJSON(t, env.ts.URL+"/v1/update", oneQuery)
	if code != http.StatusOK {
		t.Fatalf("update: status %d body %s", code, body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Outcome != "committed" {
		t.Fatalf("update outcome %s, want committed", ur.Outcome)
	}
	code, body = postJSON(t, env.ts.URL+"/v1/recommend", oneQuery)
	if code != http.StatusOK {
		t.Fatalf("recommend: status %d", code)
	}
	var before RecommendResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}

	// "Kill": drain the first daemon (idempotent with the cleanup drain).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := env.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// "Resume": a brand-new stub + trainer over the same ModelDir. No
	// Train call — the state must come from disk.
	s := catalog.TPCH(1)
	whatIf := cost.NewWhatIf(cost.NewModel(s))
	trainer2, err := guard.NewTrainer(newStub(nil), guard.Config{
		CanaryCost: stubCanaryCost,
		ModelDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := trainer2.TryRestore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("TryRestore found nothing to restore")
	}
	srv2, err := NewServer(Config{
		Trainer:    trainer2,
		NewReplica: func() (advisor.Advisor, error) { return newStub(nil), nil },
		Fallback:   newStub(nil),
		WhatIf:     whatIf,
		Schema:     s,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		if err := srv2.Drain(ctx); err != nil {
			t.Errorf("drain 2: %v", err)
		}
	}()

	code, body = postJSON(t, ts2.URL+"/v1/recommend", oneQuery)
	if code != http.StatusOK {
		t.Fatalf("resumed recommend: status %d body %s", code, body)
	}
	var after RecommendResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	// The serve-layer version counter restarts at 1, but the restored model
	// must answer exactly like the pre-kill one.
	if after.Tier != "full" {
		t.Errorf("resumed tier %s, want full", after.Tier)
	}
	if strings.Join(after.Indexes, ",") != strings.Join(before.Indexes, ",") ||
		after.CostReduction != before.CostReduction {
		t.Errorf("resumed answer %+v differs from pre-kill %+v", after, before)
	}

	// And a restored daemon keeps accepting updates: the next clean update
	// is a new attempt on the restored model and must commit.
	code, body = postJSON(t, ts2.URL+"/v1/update", oneQuery)
	if code != http.StatusOK {
		t.Fatalf("post-resume update: status %d", code)
	}
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Outcome != "committed" {
		t.Errorf("post-resume update outcome %s, want committed", ur.Outcome)
	}
}
