package main

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/defense"
	"repro/internal/obs"
	"repro/internal/pipa"
	"repro/internal/workload"
)

// Span names. Each names the layer first, so per-layer metrics group by the
// prefix; the decorators below and the workload drivers are the only places
// spans are opened.
const (
	spanTrain      = "advisor.train"
	spanRetrain    = "advisor.retrain"
	spanRecommend  = "advisor.recommend"
	spanClone      = "advisor.clone"
	spanSnapshot   = "snap.snapshot"
	spanRestore    = "snap.restore"
	spanInject     = "pipa.inject"
	spanStress     = "pipa.stress"
	spanCell       = "experiments.cell"
	spanScreenPref = "defense."
)

// tracer records the spans of one goroutine-confined owner — a grid cell, a
// serving replica, the guarded trainer — into one obs.Trace. The owners are
// not safe for concurrent use, so neither is the tracer: its stack of open
// spans gives nesting without a context parameter, which the advisor, injector
// and screener interfaces do not carry. While the shared switch is off new
// spans are skipped; a span already open when it flips is still closed and
// kept.
type tracer struct {
	on    *atomic.Bool
	tr    *obs.Trace
	stack []*obs.TSpan

	restores, restoredBytes int64 // traced Restore calls and their blob bytes
}

func newTracer(name string, on *atomic.Bool) *tracer {
	return &tracer{on: on, tr: obs.NewTrace(name, nil)}
}

// start opens a span under the innermost open one and returns its closer.
func (t *tracer) start(name string) func() {
	if !t.on.Load() {
		return func() {}
	}
	parent := t.tr.Root()
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	sp := parent.StartChild(name)
	t.stack = append(t.stack, sp)
	return func() {
		sp.End()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// tracedAdvisor decorates a snapshottable, cloneable, introspectable advisor
// — every learned advisor in the registry — with one span per call. It is
// transparent: the pipa injectors type-assert Introspector, guard and serve
// assert Snapshotter, and the grid clones through Cloner, so the decorator
// implements all three and forwards them unchanged.
type tracedAdvisor struct {
	inner advisor.Advisor
	snap  advisor.Snapshotter
	clone advisor.Cloner
	intro advisor.Introspector
	t     *tracer
}

// traceAdvisor wraps a; it fails for advisors lacking one of the forwarded
// capabilities, where wrapping would hide or invent a capability.
func traceAdvisor(a advisor.Advisor, t *tracer) (*tracedAdvisor, error) {
	s, okS := a.(advisor.Snapshotter)
	c, okC := a.(advisor.Cloner)
	i, okI := a.(advisor.Introspector)
	if !okS || !okC || !okI {
		return nil, fmt.Errorf("bench: advisor %s lacks Snapshotter, Cloner or Introspector", a.Name())
	}
	return &tracedAdvisor{inner: a, snap: s, clone: c, intro: i, t: t}, nil
}

func (a *tracedAdvisor) Name() string     { return a.inner.Name() }
func (a *tracedAdvisor) TrialBased() bool { return a.inner.TrialBased() }

func (a *tracedAdvisor) Snapshot() ([]byte, error) {
	defer a.t.start(spanSnapshot)()
	return a.snap.Snapshot()
}

func (a *tracedAdvisor) Restore(b []byte) error {
	if a.t.on.Load() {
		a.t.restores++
		a.t.restoredBytes += int64(len(b))
	}
	defer a.t.start(spanRestore)()
	return a.snap.Restore(b)
}

func (a *tracedAdvisor) Train(w *workload.Workload) {
	defer a.t.start(spanTrain)()
	a.inner.Train(w)
}

func (a *tracedAdvisor) Retrain(w *workload.Workload) {
	defer a.t.start(spanRetrain)()
	a.inner.Retrain(w)
}

func (a *tracedAdvisor) Recommend(w *workload.Workload) []cost.Index {
	defer a.t.start(spanRecommend)()
	return a.inner.Recommend(w)
}

func (a *tracedAdvisor) ColumnPreferences() map[string]float64 { return a.intro.ColumnPreferences() }

// CloneAdvisor wraps the clone over the same tracer: clones stay on the
// goroutine that made them.
func (a *tracedAdvisor) CloneAdvisor() advisor.Advisor {
	end := a.t.start(spanClone)
	c := a.clone.CloneAdvisor()
	end()
	w, err := traceAdvisor(c, a.t)
	if err != nil {
		panic(err) // a clone has its original's type, checked in traceAdvisor
	}
	return w
}

// tracedInjector decorates a pipa.Injector; probing calls into the victim
// nest under its span.
type tracedInjector struct {
	inner pipa.Injector
	t     *tracer
}

func (j tracedInjector) Name() string { return j.inner.Name() }

func (j tracedInjector) BuildInjection(ctx context.Context, ia advisor.Advisor, size int) *workload.Workload {
	defer j.t.start(spanInject)()
	return j.inner.BuildInjection(ctx, ia, size)
}

// tracedScreener decorates one defense screener. It always takes the
// context path, which defense.ScreenWith routes to the inner screener's own
// ScreenCtx when it has one, exactly as the guard would.
type tracedScreener struct {
	inner defense.Screener
	t     *tracer
}

func (s tracedScreener) Name() string { return s.inner.Name() }

func (s tracedScreener) Screen(w *workload.Workload) (*workload.Workload, *defense.Report) {
	return s.ScreenCtx(context.Background(), w)
}

func (s tracedScreener) ScreenCtx(ctx context.Context, w *workload.Workload) (*workload.Workload, *defense.Report) {
	defer s.t.start(spanScreenPref + s.inner.Name())()
	return defense.ScreenWith(ctx, s.inner, w)
}

// traceScreener decorates what trim.BuildScreener returned: each element of
// a chain, or the single screener. nil (no screening) stays nil.
func traceScreener(s defense.Screener, t *tracer) defense.Screener {
	switch s := s.(type) {
	case nil:
		return nil
	case *defense.Chain:
		for i, e := range s.Screeners {
			s.Screeners[i] = tracedScreener{inner: e, t: t}
		}
		return s
	default:
		return tracedScreener{inner: s, t: t}
	}
}

// interval is a half-open [start, end) span of microseconds.
type interval struct{ start, end int64 }

// unionLen is the length covered by the intervals; overlaps count once.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([]interval(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a].start < iv[b].start })
	total, cur := int64(0), iv[0]
	for _, x := range iv[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover,
// each child clipped to the parent.
func selfTime(s *obs.TSpanSnapshot) int64 {
	end := s.StartUs + s.DurUs
	iv := make([]interval, 0, len(s.Children))
	for _, c := range s.Children {
		a, b := max(c.StartUs, s.StartUs), min(c.StartUs+c.DurUs, end)
		if b > a {
			iv = append(iv, interval{a, b})
		}
	}
	return s.DurUs - unionLen(iv)
}

// spanTotals folds span trees into per-key totals: self time and call count
// per span name, with one refinement the per-layer metrics need — spans
// nested under a screener are the screener's scratch fits, so their
// durations go to "<screener>.fit" instead of their own names.
type spanTotals struct {
	selfUs map[string]int64
	calls  map[string]int
}

func newSpanTotals() *spanTotals {
	return &spanTotals{selfUs: map[string]int64{}, calls: map[string]int{}}
}

// add folds every span under root (the root itself excluded).
func (t *spanTotals) add(root *obs.TSpanSnapshot) {
	for _, c := range root.Children {
		t.walk(c, "")
	}
}

func (t *spanTotals) walk(s *obs.TSpanSnapshot, screener string) {
	if screener != "" {
		t.selfUs[screener+".fit"] += selfTime(s)
	} else {
		t.selfUs[s.Name] += selfTime(s)
		t.calls[s.Name]++
	}
	inner := screener
	if inner == "" && len(s.Name) > len(spanScreenPref) && s.Name[:len(spanScreenPref)] == spanScreenPref {
		inner = s.Name
	}
	for _, c := range s.Children {
		t.walk(c, inner)
	}
}
