package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("x_total")
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("x_total").Value(); got != workers*per {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("mu_entropy")
	g.Set(1.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %v, want -3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	// v <= 1: {0.5, 1}; v <= 2: {1.5, 2}; v <= 5: {3}; +Inf: {10}
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got := h.Sum(); math.Abs(got-18) > 1e-9 {
		t.Fatalf("sum = %v, want 18", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 50, 10},
		{0.95, 95, 10},
		{0.1, 10, 10},
		{1, 100, 1e-9},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("quantile(%v) = %v, want %v±%v", tc.q, got, tc.want, tc.tol)
		}
	}
	empty := newHistogram(nil)
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Errorf("empty quantile should be NaN")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(i % 2)) // alternate buckets
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	c := h.BucketCounts()
	if c[0] != 2000 || c[1] != 2000 {
		t.Fatalf("buckets = %v, want [2000 2000]", c)
	}
}

func TestSeriesCap(t *testing.T) {
	s := &Series{}
	for i := 0; i < maxSeriesLen+10; i++ {
		s.Append(float64(i))
	}
	if got := len(s.Values()); got != maxSeriesLen {
		t.Fatalf("series len = %d, want %d", got, maxSeriesLen)
	}
	if s.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", s.Dropped())
	}
}

// identicalRun drives one observer through a fixed op sequence: two
// experiment traces on a fake clock, handed to the flight recorder when they
// finish, plus a few metrics.
func identicalRun(o *Observer) {
	ResetTraceIDs()
	o.Flight.SetRecordAll(true)
	clock := NewFakeClock(100 * time.Microsecond).Now
	tr := NewTrace("experiment:fig1", clock)
	probe := tr.Root().StartChild("pipa.probe")
	for i := 0; i < 3; i++ {
		e := probe.StartChild("probe.epoch")
		o.Metrics.Counter("pipa_probe_epochs_total").Inc()
		o.Metrics.Gauge("pipa_probe_mu_entropy").Set(1.0 / float64(i+1))
		e.End()
	}
	probe.End()
	o.Metrics.Counter(Name("cost_plan_access_total", "kind", "SeqScan")).Add(7)
	o.Metrics.Histogram("advisor_trial_reward", nil).Observe(0.42)
	o.Metrics.Series("advisor_train_reward").Append(0.1)
	o.Metrics.Series("advisor_train_reward").Append(0.2)
	tr.End()
	o.Flight.Observe(tr)

	tr = NewTrace("experiment:fig7", clock)
	tr.Root().StartChild("train:DQN-b").End()
	tr.End()
	o.Flight.Observe(tr)
}

func TestReportDeterministic(t *testing.T) {
	var reports [][]byte
	for i := 0; i < 2; i++ {
		o := New()
		identicalRun(o)
		b, err := o.BuildReport("test", map[string]string{"exp": "fig1"}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, b)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("two identical fake-clock runs produced different reports:\n%s\n----\n%s", reports[0], reports[1])
	}
	var r Report
	if err := json.Unmarshal(reports[0], &r); err != nil {
		t.Fatal(err)
	}
	// Phases fold every span of every retained trace, names cut at ':'.
	want := map[string]PhaseTime{
		"experiment":  {Count: 2, TotalUs: 900 + 300},
		"pipa.probe":  {Count: 1, TotalUs: 700},
		"probe.epoch": {Count: 3, TotalUs: 300},
		"train":       {Count: 1, TotalUs: 100},
	}
	if len(r.Phases) != len(want) {
		t.Fatalf("phases = %+v, want %+v", r.Phases, want)
	}
	for name, pt := range want {
		if r.Phases[name] != pt {
			t.Errorf("phase %s = %+v, want %+v", name, r.Phases[name], pt)
		}
	}
	if len(r.Traces) != 2 || r.Traces[0].Name != "experiment:fig1" {
		t.Fatalf("traces = %+v", r.Traces)
	}
	if r.Metrics.Counters[Name("cost_plan_access_total", "kind", "SeqScan")] != 7 {
		t.Fatalf("counter lookup failed: %+v", r.Metrics.Counters)
	}
	if len(r.Metrics.Series["advisor_train_reward"]) != 2 {
		t.Fatalf("series = %+v", r.Metrics.Series)
	}
}

func TestRegistryResetKeepsHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	h := r.Histogram("h", []float64{1})
	s := r.Series("s")
	c.Add(5)
	h.Observe(0.5)
	s.Append(1)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || len(s.Values()) != 0 {
		t.Fatalf("reset left values: %d %d %d", c.Value(), h.Count(), len(s.Values()))
	}
	c.Inc() // old handle must still feed the registry
	if r.Counter("a_total").Value() != 1 {
		t.Fatalf("handle detached after reset")
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("cost_plan_access_total", "kind", "SeqScan")).Add(3)
	r.Counter(Name("cost_plan_access_total", "kind", "IndexScan")).Add(2)
	r.Gauge("pipa_probe_mu_entropy").Set(0.5)
	r.Histogram("reward", []float64{0, 1}).Observe(0.5)
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE cost_plan_access_total counter",
		`cost_plan_access_total{kind="IndexScan"} 2`,
		`cost_plan_access_total{kind="SeqScan"} 3`,
		"pipa_probe_mu_entropy 0.5",
		`reward_bucket{le="1"} 1`,
		`reward_bucket{le="+Inf"} 1`,
		"reward_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE cost_plan_access_total") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
}

func TestName(t *testing.T) {
	if got := Name("x"); got != "x" {
		t.Fatalf("Name no labels = %q", got)
	}
	a := Name("x_total", "b", "2", "a", "1")
	b := Name("x_total", "a", "1", "b", "2")
	if a != b || a != `x_total{a="1",b="2"}` {
		t.Fatalf("Name not canonical: %q vs %q", a, b)
	}
}

func TestHTTPHandler(t *testing.T) {
	o := New()
	o.Metrics.Counter("hits_total").Add(4)
	o.Flight.SetRecordAll(true)
	tr := NewTrace("root", NewFakeClock(time.Microsecond).Now)
	tr.End()
	o.Flight.Observe(tr)
	srv := o.Handler()

	get := func(path string) string {
		req, _ := http.NewRequest("GET", path, nil)
		rec := &respRecorder{header: http.Header{}}
		srv.ServeHTTP(rec, req)
		return rec.body.String()
	}
	if body := get("/metrics"); !strings.Contains(body, "hits_total 4") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"hits_total":4`) {
		t.Errorf("/metrics.json missing counter:\n%s", body)
	}
	if body := get("/report"); !strings.Contains(body, `"name": "root"`) {
		t.Errorf("/report missing span:\n%s", body)
	}
}

// respRecorder is a minimal http.ResponseWriter for handler tests.
type respRecorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *respRecorder) Header() http.Header { return r.header }
func (r *respRecorder) WriteHeader(c int)   { r.code = c }
func (r *respRecorder) Write(b []byte) (int, error) {
	return r.body.Write(b)
}

var _ io.Writer = (*respRecorder)(nil)
