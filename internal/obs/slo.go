package obs

import (
	"sync"
	"time"
)

// SLO layer (DESIGN.md §11): windowed good/bad accounting with the standard
// multi-window, multi-burn-rate condition. The burn rate over a window is
// (bad ratio) / (error budget), where the budget is 1 - objective; burning at
// exactly 1.0 spends the budget precisely over the SLO period. A breach
// requires BOTH the fast and the slow window to burn hot — the fast window
// makes detection quick, the slow window keeps a short blip from flapping
// readiness — and a minimum sample count so an idle or barely-warm daemon
// never breaches on noise.

// sloBuckets is the ring resolution per window: each window is split into
// this many rotating buckets, so expiry granularity is width/sloBuckets.
const sloBuckets = 30

// The SLO's fixed parameters: a 99% good-ratio objective, 1 m and 10 m burn
// windows with the classic page-severity thresholds (14.4 and 6) scaled to
// them, and a slow-window sample count below which it never breaches.
const (
	sloObjective  = 0.99
	sloFastWindow = time.Minute
	sloSlowWindow = 10 * time.Minute
	sloFastBurn   = 14.4
	sloSlowBurn   = 6
	sloMinSamples = 20
)

// sloWindow is one rotating-bucket counting window.
type sloWindow struct {
	bucketDur time.Duration
	good      [sloBuckets]int64
	bad       [sloBuckets]int64
	lastIdx   int64 // absolute bucket index of the newest bucket
}

func newSLOWindow(width time.Duration) *sloWindow {
	d := width / sloBuckets
	if d <= 0 {
		d = time.Millisecond
	}
	return &sloWindow{bucketDur: d, lastIdx: -1}
}

// advance rotates out buckets older than the window ending at now.
func (w *sloWindow) advance(now time.Time) int {
	idx := now.UnixNano() / int64(w.bucketDur)
	if w.lastIdx < 0 {
		w.lastIdx = idx
	}
	for ; w.lastIdx < idx; w.lastIdx++ {
		slot := int((w.lastIdx + 1) % sloBuckets)
		w.good[slot] = 0
		w.bad[slot] = 0
	}
	return int(idx % sloBuckets)
}

func (w *sloWindow) observe(now time.Time, good bool) {
	slot := w.advance(now)
	if good {
		w.good[slot]++
	} else {
		w.bad[slot]++
	}
}

func (w *sloWindow) totals(now time.Time) (good, bad int64) {
	w.advance(now)
	for i := 0; i < sloBuckets; i++ {
		good += w.good[i]
		bad += w.bad[i]
	}
	return good, bad
}

// SLOTracker tracks one service-level objective over a fast and a slow
// window and publishes its burn rates as gauges
// (slo_burn_rate{slo=...,window=fast|slow} and slo_breaching{slo=...}).
// Safe for concurrent use; the clock is injectable for deterministic tests.
type SLOTracker struct {
	clock Clock

	mu   sync.Mutex
	fast *sloWindow
	slow *sloWindow

	gFast   *Gauge
	gSlow   *Gauge
	gBreach *Gauge
}

// NewSLOTracker builds a tracker named name (the gauge label). clock may be
// nil for wall time.
func NewSLOTracker(name string, clock Clock) *SLOTracker {
	if clock == nil {
		clock = time.Now
	}
	return &SLOTracker{
		clock:   clock,
		fast:    newSLOWindow(sloFastWindow),
		slow:    newSLOWindow(sloSlowWindow),
		gFast:   GetGauge(Name("slo_burn_rate", "slo", name, "window", "fast")),
		gSlow:   GetGauge(Name("slo_burn_rate", "slo", name, "window", "slow")),
		gBreach: GetGauge(Name("slo_breaching", "slo", name)),
	}
}

// Observe records one good or bad event and refreshes the burn-rate gauges.
func (s *SLOTracker) Observe(good bool) {
	now := s.clock()
	s.mu.Lock()
	s.fast.observe(now, good)
	s.slow.observe(now, good)
	fast, slow, breach := s.ratesLocked(now)
	s.mu.Unlock()
	s.publish(fast, slow, breach)
}

// Rates returns the current fast- and slow-window burn rates (0 on empty
// windows) and refreshes the gauges.
func (s *SLOTracker) Rates() (fast, slow float64) {
	now := s.clock()
	s.mu.Lock()
	fast, slow, breach := s.ratesLocked(now)
	s.mu.Unlock()
	s.publish(fast, slow, breach)
	return fast, slow
}

// Breaching reports whether both windows burn past their thresholds with
// enough samples to matter. Feed it to a /readyz hook: a breaching daemon is
// alive but should not receive new traffic.
func (s *SLOTracker) Breaching() bool {
	now := s.clock()
	s.mu.Lock()
	fast, slow, breach := s.ratesLocked(now)
	s.mu.Unlock()
	s.publish(fast, slow, breach)
	return breach
}

func (s *SLOTracker) ratesLocked(now time.Time) (fast, slow float64, breach bool) {
	fg, fb := s.fast.totals(now)
	sg, sb := s.slow.totals(now)
	fast = burnRate(fg, fb)
	slow = burnRate(sg, sb)
	breach = sg+sb >= sloMinSamples && fast >= sloFastBurn && slow >= sloSlowBurn
	return fast, slow, breach
}

func (s *SLOTracker) publish(fast, slow float64, breach bool) {
	s.gFast.Set(fast)
	s.gSlow.Set(slow)
	if breach {
		s.gBreach.Set(1)
	} else {
		s.gBreach.Set(0)
	}
}

func burnRate(good, bad int64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - sloObjective)
}
