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

// SLOConfig parameterizes a tracker. Zero values select the defaults.
type SLOConfig struct {
	// Objective is the target good ratio, e.g. 0.99. Default 0.99.
	Objective float64
	// FastWindow and SlowWindow are the two burn windows. Defaults 1m / 10m.
	FastWindow, SlowWindow time.Duration
	// FastBurn and SlowBurn are the breach thresholds per window. Defaults
	// 14.4 and 6 (the classic page-severity pair, scaled to the windows).
	FastBurn, SlowBurn float64
	// MinSamples is the slow-window event count below which Breaching is
	// always false. Default 20.
	MinSamples int64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.99
	}
	if c.FastWindow <= 0 {
		c.FastWindow = time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 10 * time.Minute
	}
	if c.FastBurn <= 0 {
		c.FastBurn = 14.4
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = 6
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	return c
}

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
	cfg   SLOConfig
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
func NewSLOTracker(name string, cfg SLOConfig, clock Clock) *SLOTracker {
	cfg = cfg.withDefaults()
	if clock == nil {
		clock = time.Now
	}
	return &SLOTracker{
		cfg:     cfg,
		clock:   clock,
		fast:    newSLOWindow(cfg.FastWindow),
		slow:    newSLOWindow(cfg.SlowWindow),
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
	budget := 1 - s.cfg.Objective
	fg, fb := s.fast.totals(now)
	sg, sb := s.slow.totals(now)
	fast = burnRate(fg, fb, budget)
	slow = burnRate(sg, sb, budget)
	breach = sg+sb >= s.cfg.MinSamples &&
		fast >= s.cfg.FastBurn && slow >= s.cfg.SlowBurn
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

func burnRate(good, bad int64, budget float64) float64 {
	total := good + bad
	if total == 0 || budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}
