package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram count/sum = %d/%v", h.Count(), h.Sum())
	}
	for i, c := range h.BucketCounts() {
		if c != 0 {
			t.Fatalf("empty bucket %d = %d", i, c)
		}
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	h.Observe(1.5)
	if h.Count() != 1 || h.Sum() != 1.5 {
		t.Fatalf("count/sum = %d/%v", h.Count(), h.Sum())
	}
	counts := h.BucketCounts()
	if counts[1] != 1 {
		t.Fatalf("buckets = %v, want sample in (1,2]", counts)
	}
	// Every quantile of a one-sample histogram interpolates inside its bucket.
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		if got < 1 || got > 2 {
			t.Fatalf("quantile(%v) = %v, want within (1,2]", q, got)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1e12)
	h.Observe(math.Inf(1))
	counts := h.BucketCounts()
	if counts[2] != 2 {
		t.Fatalf("overflow bucket = %v, want 2 samples in +Inf", counts)
	}
	// The +Inf bucket clamps quantiles to the highest finite bound.
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want clamp to 2", got)
	}
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramUnsortedBoundsSorted(t *testing.T) {
	h := newHistogram([]float64{5, 1, 2})
	b := h.Bounds()
	if b[0] != 1 || b[1] != 2 || b[2] != 5 {
		t.Fatalf("bounds not sorted: %v", b)
	}
}

func TestSeriesConcurrentAppend(t *testing.T) {
	// Run under -race in CI: concurrent appends must neither race nor lose
	// samples below the cap.
	s := &Series{}
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Append(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := len(s.Values()); got != workers*per {
		t.Fatalf("series len = %d, want %d", got, workers*per)
	}
	if s.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", s.Dropped())
	}
}
