package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailLadder lists the tail percentiles a timing may report, highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.75, 0.5}

// tailLevel picks the percentile a timing reports as its tail: the highest
// ladder level not above want that leaves at least minBeyond of n samples
// beyond it, or 1 (the slowest sample) when none does. Workloads fix want
// from their expected sample count, so the level does not drift between
// runs as throughput changes.
func tailLevel(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want && n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 1
}

// rank is the 1-based nearest rank of the p-quantile among n samples. The
// epsilon keeps products like 0.9 × 100 = 90.00000000000001 on their rank.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)-1e-9)), 1), n)
}

// percentile is the nearest-rank p-quantile of samples (p = 1 is the
// maximum). samples need not be sorted; it is not modified.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[rank(p, len(s))-1]
}

// median is the middle sample, or the mean of the two middle ones.
func median(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opStats summarizes one kind of operation for the result record: counts,
// and the percentiles behind every reported timing with the sample count n.
type opStats struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	N         int     `json:"n"`
	P50Ms     float64 `json:"p50_ms"`
	TailLevel float64 `json:"tail_percentile"`
	TailMs    float64 `json:"tail_ms"`
	PerSec    float64 `json:"per_s"`
}

// ops collects the latencies of one kind of operation; the load goroutines
// each own one and merge at the end.
type ops struct {
	lat       []time.Duration
	attempted int
	failed    int
}

func (o *ops) merge(other *ops) {
	o.lat = append(o.lat, other.lat...)
	o.attempted += other.attempted
	o.failed += other.failed
}

func (o *ops) stats(wantTail float64, elapsed time.Duration) *opStats {
	lvl := tailLevel(len(o.lat), wantTail)
	st := &opStats{
		Attempted: o.attempted,
		Failed:    o.failed,
		N:         len(o.lat),
		P50Ms:     ms(percentile(o.lat, 0.5)),
		TailLevel: lvl,
		TailMs:    ms(percentile(o.lat, lvl)),
	}
	if elapsed > 0 {
		st.PerSec = float64(len(o.lat)) / elapsed.Seconds()
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0, so a metric never becomes NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
