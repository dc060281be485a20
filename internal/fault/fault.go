// Package fault is the chaos layer of the experiment pipeline: a
// deterministic, seed-driven fault injector plus the resilience machinery
// that keeps the pipeline useful when its substrate misbehaves — Retry
// (exponential backoff with deterministic jitter, budget-capped) and Breaker
// (a circuit breaker that trips persistent failures over to a degraded
// fallback path).
//
// The design constraint that shapes everything here is determinism under
// concurrency (DESIGN.md §8): fault decisions are pure hashes of
// (seed, kind, site, key, attempt), never draws from a shared RNG, so the
// same seed produces the same faults at any worker width and any goroutine
// interleaving. Stateful pieces (breakers, clocks) are scoped per experiment
// cell, where execution is serial, so their evolution is deterministic too.
package fault

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Kind enumerates the fault taxonomy (DESIGN.md §8.1).
type Kind int

const (
	// TransientErr fails the call; the site is expected to retry.
	TransientErr Kind = iota
	// LatencySpike stalls the call on the injector's clock.
	LatencySpike
	// NoisyCost perturbs a cost estimate by a symmetric relative error ±ε.
	NoisyCost
	// DroppedProbe loses one probe response: the epoch's budget is spent but
	// no observation arrives.
	DroppedProbe
	// StaleStats emulates estimates computed from out-of-date statistics: a
	// one-sided relative inflation of the estimate.
	StaleStats

	numKinds
)

// String names the kind (used as the obs label).
func (k Kind) String() string {
	switch k {
	case TransientErr:
		return "transient-error"
	case LatencySpike:
		return "latency-spike"
	case NoisyCost:
		return "noisy-cost"
	case DroppedProbe:
		return "dropped-probe"
	case StaleStats:
		return "stale-stats"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrTransient is the error surfaced by injected transient failures.
var ErrTransient = errors.New("fault: injected transient error")

// injectedCounters export per-kind injection totals process-wide; handles are
// cached so the decision hot path pays one atomic add per fired fault.
var injectedCounters = func() [numKinds]*obs.Counter {
	var cs [numKinds]*obs.Counter
	for i := range cs {
		cs[i] = obs.GetCounter(obs.Name("fault_injected_total", "kind", Kind(i).String()))
	}
	return cs
}()

// The fault magnitudes (DESIGN.md §8.1).
const (
	// noiseEpsilon is the NoisyCost relative amplitude.
	noiseEpsilon = 0.15
	// staleness is the StaleStats maximum relative inflation.
	staleness = 0.5
	// spikeDelay is the LatencySpike stall.
	spikeDelay = 50 * time.Millisecond
)

// Config parameterizes one Injector.
type Config struct {
	// Rate is the per-decision fault probability in [0, 1]; 0 disables the
	// injector entirely.
	Rate float64
	// Seed drives every decision hash. Two injectors with equal (Config,
	// call sequence) produce identical faults.
	Seed int64
	// Only, when non-nil, restricts injection to the listed kinds.
	Only map[Kind]bool
}

// Injector decides, deterministically, where faults fire. The zero of every
// method on a nil *Injector is "no fault", so call sites need no nil checks.
// Injectors are safe for concurrent use: decisions are stateless hashes and
// the counters are atomic.
type Injector struct {
	cfg   Config
	clock Clock
	fired atomic.Int64
}

// New builds an injector; clock may be nil for the wall clock. Experiments
// that need byte-identical output pass a VirtualClock so latency spikes and
// backoff advance simulated time only.
func New(cfg Config, clock Clock) *Injector {
	if clock == nil {
		clock = WallClock{}
	}
	return &Injector{cfg: cfg, clock: clock}
}

// Rate returns the configured fault probability (0 for a nil injector).
func (f *Injector) Rate() float64 {
	if f == nil {
		return 0
	}
	return f.cfg.Rate
}

// Seed returns the injector's seed.
func (f *Injector) Seed() int64 {
	if f == nil {
		return 0
	}
	return f.cfg.Seed
}

// Clock returns the injector's clock (the wall clock for a nil injector), so
// retry policies and breakers share the same notion of time as the faults.
func (f *Injector) Clock() Clock {
	if f == nil {
		return WallClock{}
	}
	return f.clock
}

// Hit reports whether a fault of kind k fires at (site, key, attempt) and
// counts it when it does. The decision is a pure hash — independent of call
// order, goroutine interleaving and how often the same site is re-asked — so
// a retried attempt must pass a fresh attempt number to get a fresh draw.
func (f *Injector) Hit(k Kind, site, key string, attempt int) bool {
	if f == nil || f.cfg.Rate <= 0 {
		return false
	}
	if f.cfg.Only != nil && !f.cfg.Only[k] {
		return false
	}
	if f.uniform(k, site, key, attempt, 0) >= f.cfg.Rate {
		return false
	}
	f.fired.Add(1)
	injectedCounters[k].Inc()
	return true
}

// Perturb returns v with the injector's estimate faults applied for
// (site, key): a symmetric ±noiseEpsilon error when NoisyCost fires and a
// one-sided [0, staleness] inflation when StaleStats fires. The perturbed
// value is a pure function of (seed, site, key), so memoizing callers stay
// deterministic.
func (f *Injector) Perturb(site, key string, v float64) float64 {
	if f == nil || f.cfg.Rate <= 0 {
		return v
	}
	if f.Hit(NoisyCost, site, key, 0) {
		u := f.uniform(NoisyCost, site, key, 0, 1) // independent of the decision draw
		v *= 1 + (2*u-1)*noiseEpsilon
	}
	if f.Hit(StaleStats, site, key, 0) {
		u := f.uniform(StaleStats, site, key, 0, 1)
		v *= 1 + u*staleness
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Delay stalls on the injector's clock when a LatencySpike fires at
// (site, key). With a VirtualClock this advances simulated time only.
func (f *Injector) Delay(site, key string) {
	if f.Hit(LatencySpike, site, key, 0) {
		f.clock.Sleep(spikeDelay)
	}
}

// FiredTotal returns how many faults, of every kind, this injector has
// injected.
func (f *Injector) FiredTotal() int64 {
	if f == nil {
		return 0
	}
	return f.fired.Load()
}

// uniform hashes (seed, kind, site, key, attempt, stream) to [0, 1).
// stream separates independent draws at the same decision point (e.g. the
// fire/no-fire decision and the noise magnitude).
func (f *Injector) uniform(k Kind, site, key string, attempt, stream int) float64 {
	h := hashSeed(uint64(f.cfg.Seed))
	h = hashInt(h, uint64(k))
	h = hashString(h, site)
	h = hashString(h, key)
	h = hashInt(h, uint64(attempt))
	h = hashInt(h, uint64(stream))
	// Upper 53 bits → exactly representable uniform in [0, 1).
	return float64(h>>11) / (1 << 53)
}

// FNV-1a 64-bit, specialized so decisions allocate nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashSeed(seed uint64) uint64 {
	return hashInt(fnvOffset64, seed)
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= 0xff // field separator so ("ab","c") != ("a","bc")
	h *= fnvPrime64
	return h
}

func hashInt(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}
