package par

import "repro/internal/obs"

// Limiter is a named counting semaphore: the admission-control primitive of
// the serving layer. Where Pool fans a known batch of tasks out, Limiter
// bounds an open-ended stream of callers — a serving daemon admits a request
// only while a slot is free and sheds the rest, so overload turns into fast
// 429s instead of unbounded queueing (DESIGN.md §10).
//
// Like Pool it is obs-instrumented per name: par_limiter_inflight{limiter=}
// tracks held slots, par_limiter_acquired_total / par_limiter_rejected_total
// count the admission decisions.
type Limiter struct {
	ch chan struct{}

	inflight *obs.Gauge
	acquired *obs.Counter
	rejected *obs.Counter
}

// NewLimiter builds a limiter with n slots (min 1).
func NewLimiter(name string, n int) *Limiter {
	if n < 1 {
		n = 1
	}
	return &Limiter{
		ch:       make(chan struct{}, n),
		inflight: obs.GetGauge(obs.Name("par_limiter_inflight", "limiter", name)),
		acquired: obs.GetCounter(obs.Name("par_limiter_acquired_total", "limiter", name)),
		rejected: obs.GetCounter(obs.Name("par_limiter_rejected_total", "limiter", name)),
	}
}

// Cap returns the slot count.
func (l *Limiter) Cap() int { return cap(l.ch) }

// InUse returns how many slots are currently held.
func (l *Limiter) InUse() int { return len(l.ch) }

// TryAcquire takes a slot without blocking, reporting whether it got one.
// This is the backpressure path: a false return is the caller's cue to shed.
func (l *Limiter) TryAcquire() bool {
	select {
	case l.ch <- struct{}{}:
		l.inflight.Add(1)
		l.acquired.Inc()
		return true
	default:
		l.rejected.Inc()
		return false
	}
}

// Release returns a slot taken by TryAcquire.
// Releasing an unheld slot panics: it means the caller's accounting is
// broken, and a silently widened limiter would defeat admission control.
func (l *Limiter) Release() {
	select {
	case <-l.ch:
		l.inflight.Add(-1)
	default:
		panic("par: Limiter.Release without a held slot")
	}
}
