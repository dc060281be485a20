package obs

import (
	"sync"
	"time"
)

// Clock supplies a trace's (and the logger's) notion of time. Production
// code uses time.Now; deterministic tests inject a FakeClock so two
// identical runs produce byte-identical span trees (DESIGN.md §5).
type Clock func() time.Time

// FakeClock is a deterministic Clock: every Now call advances the returned
// time by Step. The zero base is the Unix epoch.
type FakeClock struct {
	mu   sync.Mutex
	now  time.Time
	Step time.Duration
}

// NewFakeClock starts at the Unix epoch with the given step per call.
func NewFakeClock(step time.Duration) *FakeClock {
	return &FakeClock{now: time.Unix(0, 0).UTC(), Step: step}
}

// Now returns the current fake time and advances it by Step.
func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.now
	f.now = f.now.Add(f.Step)
	return t
}
