package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Context-propagated tracing (DESIGN.md §6, §11). A Trace is one span tree —
// one per experiment in the batch tools, one per request in the serving
// daemon — propagated through context.Context, safe to grow from several
// goroutines (parallel experiment cells, or the HTTP handler and the trainer
// loop adding spans to one update trace), and identified by a deterministic
// trace ID that the serving daemon echoes in every response.
//
// IDs are deterministic by construction — a process-wide sequence number
// scrambled through SplitMix64 — so two identical runs (same request order)
// produce identical trace IDs and tests can assert exact span parentage.

// traceSeq numbers every trace created in this process, in creation order.
var traceSeq atomic.Uint64

// ResetTraceIDs rewinds the deterministic trace ID sequence (tests only).
func ResetTraceIDs() { traceSeq.Store(0) }

// splitmix64 is the SplitMix64 finalizer: a cheap, high-quality bijection
// from sequence numbers to well-spread 64-bit IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextTraceID renders the next deterministic 16-byte trace ID as 32 hex
// digits (the W3C traceparent width).
func nextTraceID() string {
	n := traceSeq.Add(1)
	return fmt.Sprintf("%016x%016x", splitmix64(n), splitmix64(n^0xa5a5a5a5a5a5a5a5))
}

// KV is one string attribute on a span or trace.
type KV struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Trace is one request-scoped span tree: a root span, child spans keyed by
// deterministic per-trace span IDs, trace-level attributes (batch
// fingerprint, guard verdict, tier) and anomaly markers that decide whether
// the flight recorder retains it. All methods are safe for concurrent use.
type Trace struct {
	mu        sync.Mutex
	id        string
	name      string
	clock     Clock
	spanSeq   uint64
	root      *TSpan
	anomalies []string
	attrs     []KV
	remote    string // parent span ID from an incoming traceparent header
}

// NewTrace opens a trace whose root span is named name. clock may be nil for
// wall time.
func NewTrace(name string, clock Clock) *Trace {
	return NewTraceFrom(name, "", clock)
}

// NewTraceFrom is NewTrace adopting an incoming traceparent header: a valid
// header contributes the trace ID (so cross-service causality joins up) and
// the remote parent span ID; an empty or malformed one falls back to a fresh
// deterministic ID.
func NewTraceFrom(name, traceparent string, clock Clock) *Trace {
	if clock == nil {
		clock = time.Now
	}
	t := &Trace{name: name, clock: clock}
	if tid, sid, ok := ParseTraceparent(traceparent); ok {
		t.id = tid
		t.remote = sid
	} else {
		t.id = nextTraceID()
	}
	t.root = &TSpan{
		tr:       t,
		name:     name,
		id:       t.nextSpanIDLocked(),
		parentID: t.remote,
		start:    clock(),
	}
	return t
}

// nextSpanIDLocked issues the next per-trace span ID (sequential, rendered
// as 16 hex digits). Callers hold t.mu or have exclusive access.
func (t *Trace) nextSpanIDLocked() string {
	t.spanSeq++
	return fmt.Sprintf("%016x", t.spanSeq)
}

// ID returns the 32-hex-digit trace ID.
func (t *Trace) ID() string { return t.id }

// Name returns the root span name.
func (t *Trace) Name() string { return t.name }

// Root returns the root span.
func (t *Trace) Root() *TSpan { return t.root }

// Traceparent renders the W3C-style header value for this trace's root span.
func (t *Trace) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", t.id, t.root.id)
}

// Annotate adds a trace-level attribute (later values do not overwrite
// earlier ones; consumers read the last occurrence of a key).
func (t *Trace) Annotate(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, KV{k, v})
	t.mu.Unlock()
}

// MarkAnomaly flags the trace as anomalous (shed, deadline, degraded tier,
// quarantine, rollback, breaker trip, ...). Anomalous traces are retained by
// the flight recorder; duplicate kinds collapse.
func (t *Trace) MarkAnomaly(kind string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, a := range t.anomalies {
		if a == kind {
			t.mu.Unlock()
			return
		}
	}
	t.anomalies = append(t.anomalies, kind)
	t.mu.Unlock()
}

// Anomalies returns the anomaly kinds marked so far.
func (t *Trace) Anomalies() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.anomalies...)
}

// End closes the root span (and with it any still-open descendants).
func (t *Trace) End() {
	if t == nil {
		return
	}
	t.root.End()
}

// TSpan is one timed region of a Trace. The zero value is unusable; spans
// come from Trace.Root and StartChild. A nil *TSpan is a valid no-op target
// for every method, so un-traced contexts cost a nil check and nothing else.
type TSpan struct {
	tr       *Trace
	name     string
	id       string
	parentID string
	start    time.Time
	end      time.Time
	ended    bool
	attrs    []KV
	children []*TSpan
}

// Trace returns the owning trace (nil for a nil span).
func (s *TSpan) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// ID returns the span's 16-hex-digit ID ("" for a nil span).
func (s *TSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// StartChild opens a child span. Safe to call from any goroutine; returns
// nil (a no-op span) when s is nil.
func (s *TSpan) StartChild(name string) *TSpan {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	c := &TSpan{tr: t, name: name, id: t.nextSpanIDLocked(), parentID: s.id, start: t.clock()}
	s.children = append(s.children, c)
	t.mu.Unlock()
	return c
}

// End closes the span; descendants still open are closed at the same
// instant. Idempotent, nil-safe.
func (s *TSpan) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	now := t.clock()
	s.endLocked(now)
	t.mu.Unlock()
}

func (s *TSpan) endLocked(now time.Time) {
	if s.ended {
		return
	}
	s.end = now
	s.ended = true
	for _, c := range s.children {
		c.endLocked(now)
	}
}

// Annotate adds a span attribute. Nil-safe.
func (s *TSpan) Annotate(k, v string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, KV{k, v})
	s.tr.mu.Unlock()
}

// Event records a zero-duration child span — a point-in-time marker such as
// a retry attempt or a breaker transition. kv pairs become its attributes.
func (s *TSpan) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	now := t.clock()
	c := &TSpan{tr: t, name: name, id: t.nextSpanIDLocked(), parentID: s.id, start: now, end: now, ended: true}
	for i := 0; i+1 < len(kv); i += 2 {
		c.attrs = append(c.attrs, KV{kv[i], kv[i+1]})
	}
	s.children = append(s.children, c)
	t.mu.Unlock()
}

// TSpanSnapshot is the JSON form of one request-scoped span. Times are
// offsets from the trace root start, so fake-clock runs marshal identically.
type TSpanSnapshot struct {
	Name     string           `json:"name"`
	SpanID   string           `json:"span_id"`
	ParentID string           `json:"parent_id,omitempty"`
	StartUs  int64            `json:"start_us"`
	DurUs    int64            `json:"dur_us"` // -1 while still open
	Attrs    []KV             `json:"attrs,omitempty"`
	Children []*TSpanSnapshot `json:"children,omitempty"`
}

// Attr returns the last value annotated under k ("", false when absent).
func (s *TSpanSnapshot) Attr(k string) (string, bool) {
	for i := len(s.Attrs) - 1; i >= 0; i-- {
		if s.Attrs[i].K == k {
			return s.Attrs[i].V, true
		}
	}
	return "", false
}

// FindTSpan returns the first snapshot named name in a depth-first walk
// rooted at s, or nil.
func FindTSpan(s *TSpanSnapshot, name string) *TSpanSnapshot {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if hit := FindTSpan(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TraceSnapshot is the JSON form of one trace: identity, anomaly markers,
// trace-level attributes and the full span tree.
type TraceSnapshot struct {
	TraceID   string   `json:"trace_id"`
	Name      string   `json:"name"`
	Anomalies []string `json:"anomalies,omitempty"`
	Attrs     []KV     `json:"attrs,omitempty"`

	Root *TSpanSnapshot `json:"root"`
}

// Attr returns the last value annotated under k ("", false when absent).
func (t *TraceSnapshot) Attr(k string) (string, bool) {
	for i := len(t.Attrs) - 1; i >= 0; i-- {
		if t.Attrs[i].K == k {
			return t.Attrs[i].V, true
		}
	}
	return "", false
}

// Snapshot captures the trace's current state. Open spans report DurUs -1.
func (t *Trace) Snapshot() *TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &TraceSnapshot{
		TraceID:   t.id,
		Name:      t.name,
		Anomalies: append([]string(nil), t.anomalies...),
		Attrs:     append([]KV(nil), t.attrs...),
		Root:      snapshotTSpan(t.root, t.root.start),
	}
}

func snapshotTSpan(s *TSpan, base time.Time) *TSpanSnapshot {
	snap := &TSpanSnapshot{
		Name:     s.name,
		SpanID:   s.id,
		ParentID: s.parentID,
		StartUs:  s.start.Sub(base).Microseconds(),
		DurUs:    -1,
		Attrs:    append([]KV(nil), s.attrs...),
	}
	if s.ended {
		snap.DurUs = s.end.Sub(s.start).Microseconds()
	}
	for _, c := range s.children {
		snap.Children = append(snap.Children, snapshotTSpan(c, base))
	}
	return snap
}

// ParseTraceparent extracts the trace and parent span IDs from a
// "00-<32 hex>-<16 hex>-<2 hex>" header value. ok is false for anything
// malformed (including the all-zero IDs the spec reserves).
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", "", false
	}
	if !isLowerHex(parts[1]) || !isLowerHex(parts[2]) {
		return "", "", false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// spanCtxKey carries the active *TSpan through context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *TSpan) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the active span in ctx, or nil. The nil span no-ops, so
// callers may use the result unconditionally.
func SpanFrom(ctx context.Context) *TSpan {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*TSpan)
	return s
}

// TraceCtxFrom returns the trace owning the active span in ctx, or nil.
func TraceCtxFrom(ctx context.Context) *Trace {
	return SpanFrom(ctx).Trace()
}

// StartSpanCtx opens a child of ctx's active span and returns a context with
// the child active. Without a trace in ctx it returns (ctx, nil) — one
// branch, zero allocation, so instrumented hot paths cost nothing untraced.
func StartSpanCtx(ctx context.Context, name string) (context.Context, *TSpan) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWithSpan(ctx, child), child
}
