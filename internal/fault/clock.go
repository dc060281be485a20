package fault

import (
	"sync/atomic"
	"time"
)

// Clock abstracts time for the chaos layer: latency spikes sleep on it,
// retry backoff waits on it, and breaker cooldowns elapse on it. Injecting a
// VirtualClock makes all three deterministic and instantaneous, which is how
// the fault-sweep experiments stay byte-identical across runs (DESIGN.md §8).
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// WallClock is the real time.Now/time.Sleep clock.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (WallClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is a simulated clock: Sleep advances it atomically and
// returns immediately. Safe for concurrent use; within one serial experiment
// cell its trajectory is fully determined by the sleep sequence.
type VirtualClock struct {
	ns atomic.Int64
}

// NewVirtualClock starts a virtual clock at the zero time.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now implements Clock.
func (c *VirtualClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

// Sleep implements Clock by advancing simulated time.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d > 0 {
		c.ns.Add(int64(d))
	}
}
