package obs

import (
	"math"
	"testing"
	"time"
)

// manualClock is a Clock the test advances explicitly (FakeClock auto-steps,
// which would silently rotate SLO buckets between observations).
type manualClock struct{ now time.Time }

func (c *manualClock) Now() time.Time          { return c.now }
func (c *manualClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newSLOTest() (*SLOTracker, *manualClock) {
	c := &manualClock{now: time.Unix(0, 0).UTC()}
	return NewSLOTracker("test", c.Now), c
}

func TestSLOBurnRateMath(t *testing.T) {
	s, clock := newSLOTest()
	// 99 good + 1 bad at a 1% budget burns at exactly 1.0 in both windows.
	for i := 0; i < 99; i++ {
		s.Observe(true)
		clock.Advance(time.Millisecond)
	}
	s.Observe(false)
	fast, slow := s.Rates()
	if math.Abs(fast-1) > 1e-9 || math.Abs(slow-1) > 1e-9 {
		t.Fatalf("burn rates = %v/%v, want 1/1", fast, slow)
	}
	if s.Breaching() {
		t.Fatal("burning at budget should not breach")
	}
}

func TestSLOBreachNeedsMinSamples(t *testing.T) {
	s, clock := newSLOTest()
	// All-bad burns at 100x budget — far past both thresholds — but stays
	// non-breaching until the slow window holds sloMinSamples events.
	for i := 0; i < 19; i++ {
		s.Observe(false)
		clock.Advance(time.Millisecond)
	}
	if s.Breaching() {
		t.Fatal("breached below sloMinSamples")
	}
	s.Observe(false)
	if !s.Breaching() {
		t.Fatal("not breaching with 20 all-bad samples")
	}
	fast, slow := s.Rates()
	if fast < 14.4 || slow < 6 {
		t.Fatalf("rates = %v/%v, want past 14.4/6", fast, slow)
	}
}

func TestSLOBreachNeedsBothWindows(t *testing.T) {
	s, clock := newSLOTest()
	// Pad the slow window with 2000 good events over 5 minutes, let the fast
	// window drain for 2, then burst 30 bad: the fast window is all-bad (burn
	// 100) while the slow window's ratio (30/2030) burns under 1.5 — a blip,
	// not a breach.
	for i := 0; i < 2000; i++ {
		s.Observe(true)
		clock.Advance(150 * time.Millisecond) // 5 minutes total
	}
	clock.Advance(2 * time.Minute)
	for i := 0; i < 30; i++ {
		s.Observe(false)
		clock.Advance(time.Millisecond)
	}
	fast, slow := s.Rates()
	if fast < 14.4 {
		t.Fatalf("fast burn = %v, want hot", fast)
	}
	if slow >= 6 {
		t.Fatalf("slow burn = %v, want cool (< 6)", slow)
	}
	if s.Breaching() {
		t.Fatal("breached on a fast-window blip alone")
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	s, clock := newSLOTest()
	for i := 0; i < 40; i++ {
		s.Observe(false)
		clock.Advance(time.Millisecond)
	}
	if !s.Breaching() {
		t.Fatal("not breaching after 40 all-bad samples")
	}
	// A full slow window later every bucket has rotated out: rates reset and
	// readiness recovers without any new traffic.
	clock.Advance(11 * time.Minute)
	fast, slow := s.Rates()
	if fast != 0 || slow != 0 {
		t.Fatalf("rates after expiry = %v/%v, want 0/0", fast, slow)
	}
	if s.Breaching() {
		t.Fatal("still breaching after the windows expired")
	}
}

func TestSLODefaultsAndGauges(t *testing.T) {
	s, _ := newSLOTest()
	s.Observe(false)
	// The tracker publishes its burn rates as package-level gauges.
	g := GetGauge(Name("slo_burn_rate", "slo", "test", "window", "fast"))
	if math.Abs(g.Value()-100) > 1e-9 { // bad ratio 1.0 over budget 0.01
		t.Fatalf("fast gauge = %v, want 100", g.Value())
	}
}
