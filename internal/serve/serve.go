// Package serve turns the guarded advisor stack into a long-running
// overload-safe daemon (DESIGN.md §10). The server answers workload →
// recommendation queries from an atomically-published model snapshot while
// guard.Trainer retrains in the background, admits requests through a
// bounded semaphore that sheds overload as fast 429s, and degrades through
// an explicit ladder — full learned advisor → cached answer → heuristic
// fallback — instead of queueing without bound.
//
// Concurrency shape: the advisors themselves are not concurrency-safe, so
// all training goes through a single trainer goroutine fed by a bounded
// update queue, and all serving goes through replica instances that restore
// the published snapshot per request (see Model). A replica decodes each
// published version once; later restores of the same blob rewind its RNG.
// Replicas keep the blob by reference, so published blobs are never
// modified. The only cross-goroutine artifacts are those immutable snapshot
// blobs, the mutex-guarded caches, and obs counters.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/obs"
	olog "repro/internal/obs/log"
	"repro/internal/par"
	"repro/internal/sql"
	"repro/internal/workload"
)

// Serving counters. serve_admitted_total + serve_shed_total account for every
// request that reached admission control; per-tier counters plus
// serve_timeouts_total account for every admitted recommendation, so the two
// families reconcile exactly against a load driver's request count.
var (
	admittedTotal  = obs.GetCounter("serve_admitted_total")
	shedTotal      = obs.GetCounter("serve_shed_total")
	timeoutsTotal  = obs.GetCounter("serve_timeouts_total")
	drainingTotal  = obs.GetCounter("serve_draining_rejects_total")
	inflightGauge  = obs.GetGauge("serve_inflight")
	tierFull       = obs.GetCounter(obs.Name("serve_recommend_total", "tier", "full"))
	tierCached     = obs.GetCounter(obs.Name("serve_recommend_total", "tier", "cached"))
	tierHeuristic  = obs.GetCounter(obs.Name("serve_recommend_total", "tier", "heuristic"))
	degradedCached = obs.GetCounter(obs.Name("serve_degraded_total", "tier", "cached"))
	degradedHeur   = obs.GetCounter(obs.Name("serve_degraded_total", "tier", "heuristic"))
	requestSeconds = obs.Default.Metrics.Histogram("serve_request_seconds", requestBuckets)

	// Per-tier latency histograms (SLO layer, DESIGN.md §11): the ladder's
	// whole point is that degraded answers are fast, so latency must be
	// attributable per tier, not just in aggregate.
	tierSecondsFull = obs.Default.Metrics.Histogram(
		obs.Name("serve_tier_seconds", "tier", "full"), requestBuckets)
	tierSecondsCached = obs.Default.Metrics.Histogram(
		obs.Name("serve_tier_seconds", "tier", "cached"), requestBuckets)
	tierSecondsHeur = obs.Default.Metrics.Histogram(
		obs.Name("serve_tier_seconds", "tier", "heuristic"), requestBuckets)
)

var requestBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

// tierLatency picks the per-tier histogram for an answered recommendation.
func tierLatency(tier string) *obs.Histogram {
	switch tier {
	case "full":
		return tierSecondsFull
	case "cached":
		return tierSecondsCached
	default:
		return tierSecondsHeur
	}
}

func updateOutcomeCounter(o string) *obs.Counter {
	return obs.GetCounter(obs.Name("serve_updates_total", "outcome", o))
}

// Config parameterizes a Server.
type Config struct {
	// Trainer is the guarded training instance every /v1/update routes
	// through. It must already be trained (or restored); the initial serving
	// snapshot is taken from it. The server owns it after NewServer: all
	// further access happens on the trainer goroutine.
	Trainer *guard.Trainer

	// NewReplica builds one serving replica — a fresh advisor instance of
	// the same kind as the trainer's inner advisor, able to Restore its
	// snapshots. Called Replicas times.
	NewReplica func() (advisor.Advisor, error)

	// Fallback answers the heuristic tier. It must be safe for concurrent
	// Recommend calls (the stock heuristic advisor is: it only reads the
	// concurrency-safe what-if cache).
	Fallback advisor.Advisor

	// WhatIf estimates the cost reduction reported with each answer.
	WhatIf *cost.WhatIf

	// Schema resolves incoming SQL.
	Schema *catalog.Schema

	// QueueDepth bounds concurrently-admitted requests; excess load is shed
	// with 429. Default 64.
	QueueDepth int

	// Replicas is the full-tier inference concurrency. Default 1.
	Replicas int

	// UpdateQueue bounds queued /v1/update batches. Default 4.
	UpdateQueue int

	// DefaultTimeout is the per-request deadline when the client sends none.
	// Default 5s.
	DefaultTimeout time.Duration

	// DegradeAfter is how long a request waits for a full-tier replica
	// before falling down the ladder. Default DefaultTimeout/4.
	DegradeAfter time.Duration

	// CacheCap bounds the recommendation cache. Default 1024.
	CacheCap int

	// BreakerThreshold consecutive full-tier timeouts trip the tier breaker
	// (requests then skip straight to the degraded tiers until
	// breakerCooldown elapses). Default 3.
	BreakerThreshold int

	// Flight is the flight recorder anomalous request traces are retained
	// in. Nil selects the Default observer's recorder, so the daemon's
	// /debug/traces and the obs report see the same ring.
	Flight *obs.FlightRecorder

	// TraceAll retains every request trace in the flight recorder, not just
	// anomalous ones (smoke tests and debugging; the ring stays bounded).
	TraceAll bool

	// Clock drives request-trace timestamps and the SLO windows. Nil selects
	// the wall clock; tests inject a fake for deterministic span durations.
	Clock obs.Clock

	// Logger receives the daemon's structured event log. Nil selects the
	// process Default logger.
	Logger *olog.Logger
}

// Fixed serving limits. The availability SLO gating /readyz runs at the obs
// defaults (99% objective, 1m/10m burn windows).
const (
	// maxTimeout caps client-requested deadlines.
	maxTimeout = 60 * time.Second
	// breakerCooldown is how long a tripped tier breaker sends requests
	// straight to the degraded tiers.
	breakerCooldown = time.Second
)

func (c *Config) applyDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.UpdateQueue <= 0 {
		c.UpdateQueue = 4
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = c.DefaultTimeout / 4
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 1024
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.Flight == nil {
		c.Flight = obs.Default.Flight
	}
	if c.Logger == nil {
		c.Logger = olog.Default
	}
}

// RecommendRequest is the /v1/recommend (and /v1/update) request body.
type RecommendRequest struct {
	Queries   []string  `json:"queries"`
	Freqs     []float64 `json:"freqs,omitempty"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
	// Source is an optional client-declared provenance tag for the batch
	// (e.g. the feed or tenant it came from). It is stamped onto the trace
	// and onto any quarantine entries the batch produces, so forensics can
	// group refusals by originating stream.
	Source string `json:"source,omitempty"`
}

// RecommendResponse is the /v1/recommend answer.
type RecommendResponse struct {
	Indexes       []string `json:"indexes"`
	DDL           []string `json:"ddl"`
	CostReduction float64  `json:"cost_reduction"`
	Tier          string   `json:"tier"`
	ModelVersion  uint64   `json:"model_version"`
	TraceID       string   `json:"trace_id"`
}

// UpdateResponse is the /v1/update answer: the guard's verdict on the batch.
type UpdateResponse struct {
	Outcome          string  `json:"outcome"`
	CanaryRegression float64 `json:"canary_regression"`
	GuardState       string  `json:"guard_state"`
	ModelVersion     uint64  `json:"model_version"`
	Quarantined      uint64  `json:"quarantined"`
	ScreenStrategy   string  `json:"screen_strategy,omitempty"`
	ScreenDropped    int     `json:"screen_dropped"`
	TraceID          string  `json:"trace_id"`
}

// QuarantineResponse is the /v1/quarantine answer.
type QuarantineResponse struct {
	Cap     int               `json:"cap"`
	Evicted uint64            `json:"evicted"`
	Entries []QuarantineEntry `json:"entries"`
}

// QuarantineEntry mirrors guard.Entry for JSON.
type QuarantineEntry struct {
	Query  string `json:"query"`
	Reason string `json:"reason"`
	Source string `json:"source,omitempty"`
	Seq    uint64 `json:"seq"`
}

// StatusResponse is the /v1/status answer.
type StatusResponse struct {
	Ready           bool        `json:"ready"`
	Draining        bool        `json:"draining"`
	ModelVersion    uint64      `json:"model_version"`
	GuardState      string      `json:"guard_state"`
	GuardStats      guard.Stats `json:"guard_stats"`
	ScreenStrategy  string      `json:"screen_strategy"`
	AdmissionInUse  int         `json:"admission_in_use"`
	AdmissionCap    int         `json:"admission_cap"`
	CacheEntries    int         `json:"cache_entries"`
	QuarantineLen   int         `json:"quarantine_len"`
	FullTierBreaker string      `json:"full_tier_breaker"`
	SLOFastBurn     float64     `json:"slo_fast_burn"`
	SLOSlowBurn     float64     `json:"slo_slow_burn"`
	SLOBreaching    bool        `json:"slo_breaching"`
	FlightRetained  int         `json:"flight_retained"`
}

type errorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// guardView is the trainer-goroutine-owned guard state mirrored for the
// status endpoint: handlers must not touch the Trainer directly.
type guardView struct {
	state string
	stats guard.Stats
}

type updateResult struct {
	outcome       guard.Outcome
	regression    float64
	state         guard.State
	version       uint64
	quarantined   uint64
	screenDropped int
	err           error
}

type updateJob struct {
	ctx    context.Context
	w      *workload.Workload
	source string            // client-declared provenance for quarantine entries
	qspan  *obs.TSpan        // "serve:queue-wait", ended when the trainer dequeues
	done   chan updateResult // buffered; the trainer loop never blocks on it
}

// Server is the advisor-serving daemon. Build it with NewServer, serve via
// Start (own listener) or Handler (embedding/tests), and stop it with Drain.
type Server struct {
	cfg       Config
	model     *Model
	cache     *recCache
	admission *par.Limiter
	breaker   *fault.Breaker
	flight    *obs.FlightRecorder
	slo       *obs.SLOTracker
	logger    *olog.Logger
	mux       *http.ServeMux

	httpSrv *http.Server

	ready    atomic.Bool
	draining atomic.Bool
	guardNow atomic.Pointer[guardView]

	// updateMu lets Drain wait out handlers that are between the draining
	// check and the queue send, so no update job is enqueued after the
	// trainer loop has been told to stop.
	updateMu    sync.RWMutex
	updates     chan *updateJob
	stopTrainer chan struct{}
	trainerDone chan struct{}

	drainReqOnce sync.Once
	drainReq     chan struct{}
	drainOnce    sync.Once
	drainErr     error
}

// NewServer builds the daemon around an already-trained (or restored)
// guard.Trainer, takes the initial serving snapshot from it, and starts the
// trainer goroutine. The caller must eventually call Drain.
func NewServer(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if cfg.Trainer == nil || cfg.Fallback == nil || cfg.WhatIf == nil || cfg.Schema == nil || cfg.NewReplica == nil {
		return nil, errors.New("serve: config needs Trainer, NewReplica, Fallback, WhatIf and Schema")
	}
	snapr, ok := cfg.Trainer.Inner().(advisor.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("serve: advisor %s does not implement Snapshotter", cfg.Trainer.Inner().Name())
	}
	blob, err := snapr.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("serve: initial snapshot: %w", err)
	}
	replicas := make([]advisor.Advisor, cfg.Replicas)
	for i := range replicas {
		if replicas[i], err = cfg.NewReplica(); err != nil {
			return nil, fmt.Errorf("serve: build replica %d: %w", i, err)
		}
	}
	model, err := NewModel(blob, replicas)
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:         cfg,
		model:       model,
		cache:       newRecCache(cfg.CacheCap),
		admission:   par.NewLimiter("serve_admission", cfg.QueueDepth),
		breaker:     fault.NewBreaker(cfg.BreakerThreshold, breakerCooldown, nil),
		flight:      cfg.Flight,
		slo:         obs.NewSLOTracker("serve_availability", cfg.Clock),
		logger:      cfg.Logger,
		updates:     make(chan *updateJob, cfg.UpdateQueue),
		stopTrainer: make(chan struct{}),
		trainerDone: make(chan struct{}),
		drainReq:    make(chan struct{}),
	}
	if cfg.TraceAll {
		s.flight.SetRecordAll(true)
	}
	s.breaker.OnTransition(func(from, to fault.BreakerState) {
		lvl := olog.LevelWarn
		if to == fault.BreakerClosed {
			lvl = olog.LevelInfo
		}
		s.logger.Log(nil, lvl, "full-tier breaker transition",
			"from", from.String(), "to", to.String())
	})
	s.storeGuardView()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/recommend", s.handleRecommend)
	s.mux.HandleFunc("/v1/update", s.handleUpdate)
	s.mux.HandleFunc("/v1/quarantine", s.handleQuarantine)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	s.mux.HandleFunc("/drain", s.handleDrain)
	s.mux.Handle("/debug/traces", s.flight)
	obs.RegisterHealth(s.mux, s.Ready)

	go s.trainerLoop()
	s.ready.Store(true)
	return s, nil
}

// Handler returns the daemon's HTTP handler for embedding or tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Ready reports whether the daemon is accepting work: true between NewServer
// and Drain, unless the availability SLO is burning past both windows'
// thresholds (a breaching daemon is alive but should not receive new
// traffic). It is the /readyz check and suits obs.SetReadyHook.
func (s *Server) Ready() bool { return s.ready.Load() && !s.slo.Breaching() }

// Version returns the currently published model version.
func (s *Server) Version() uint64 { return s.model.Version() }

// Admission exposes the admission limiter (load drivers and tests introspect
// it; handlers own acquire/release).
func (s *Server) Admission() *par.Limiter { return s.admission }

// DrainRequested is closed when a client POSTs /drain; the process main
// selects on it alongside its signal context and then calls Drain.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainReq }

// Start listens on addr and serves in a background goroutine, returning the
// bound address (useful with ":0").
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("serve: http: %v\n", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Drain gracefully stops the daemon: flip readiness off, reject new work,
// finish queued updates and in-flight requests, shut the listener down, and
// persist the trainer's last committed state. Idempotent; bounded by ctx.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { s.drainErr = s.drain(ctx) })
	return s.drainErr
}

func (s *Server) drain(ctx context.Context) error {
	s.logger.Info(ctx, "drain: stopping daemon",
		"flight_retained", s.flight.Len(), "model_version", s.model.Version())
	s.ready.Store(false)
	s.draining.Store(true)
	// Barrier: wait out handlers holding the read lock mid-enqueue, so
	// nothing lands on the queue after the stop signal.
	s.updateMu.Lock()
	s.updateMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	close(s.stopTrainer)
	select {
	case <-s.trainerDone:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: trainer loop still busy: %w", ctx.Err())
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("serve: drain: shutdown: %w", err)
		}
	}
	// The trainer loop has exited, so touching the Trainer is safe again.
	if err := s.cfg.Trainer.Persist(); err != nil {
		return fmt.Errorf("serve: drain: persist: %w", err)
	}
	return nil
}

// storeGuardView publishes the trainer's state/stats for the status handler.
// Called from the trainer goroutine (and once before it starts).
func (s *Server) storeGuardView() {
	s.guardNow.Store(&guardView{
		state: s.cfg.Trainer.State().String(),
		stats: s.cfg.Trainer.Stats(),
	})
}

// trainerLoop is the single goroutine allowed to touch the guard.Trainer.
// On stop it drains the queue first, so every handler already holding a slot
// in it still gets an answer. The goroutine is pprof-labeled so profile
// samples spent retraining are attributable.
func (s *Server) trainerLoop() {
	defer close(s.trainerDone)
	pprof.Do(context.Background(), pprof.Labels("loop", "guard-trainer"), func(context.Context) {
		for {
			select {
			case job := <-s.updates:
				s.runUpdate(job)
			case <-s.stopTrainer:
				for {
					select {
					case job := <-s.updates:
						s.runUpdate(job)
					default:
						return
					}
				}
			}
		}
	})
}

func (s *Server) runUpdate(job *updateJob) {
	job.qspan.End() // dequeued: the queue wait is over
	tr := obs.TraceCtxFrom(job.ctx)
	if err := job.ctx.Err(); err != nil {
		// The client's deadline expired while the job sat in the queue;
		// skip the (expensive) retrain rather than training for nobody.
		updateOutcomeCounter("expired").Inc()
		tr.MarkAnomaly("deadline")
		job.done <- updateResult{err: err}
		return
	}
	t := s.cfg.Trainer
	pre := t.Stats()
	// runUpdate is only ever called from the single trainer-loop goroutine,
	// so the provenance tag cannot race with the retrain it labels.
	t.SetProvenance(job.source)
	t.RetrainCtx(job.ctx, job.w)
	out := t.LastOutcome()
	st := t.Stats()
	res := updateResult{
		outcome:     out,
		regression:  st.LastCanaryAD,
		state:       t.State(),
		quarantined: st.Quarantined,
		version:     s.model.Version(),
	}
	if rep := t.LastScreenReport(); rep != nil {
		res.screenDropped = rep.Dropped
	}
	if out == guard.Committed {
		blob, err := t.Inner().(advisor.Snapshotter).Snapshot()
		if err != nil {
			res.err = fmt.Errorf("serve: snapshot committed model: %w", err)
		} else {
			res.version = s.model.Publish(blob)
			s.logger.Info(job.ctx, "update committed, model swapped",
				"version", res.version, "regression", res.regression)
		}
	}
	// Forensics: anomalous guard verdicts flag the trace for retention, and
	// the verdict itself becomes a trace attribute the flight recorder keeps.
	switch out {
	case guard.RolledBack:
		tr.MarkAnomaly("rollback")
		s.logger.Warn(job.ctx, "update rolled back by canary gate",
			"regression", res.regression, "guard_state", res.state.String())
	case guard.Frozen:
		tr.MarkAnomaly("frozen")
		s.logger.Warn(job.ctx, "update frozen: guard open", "guard_state", res.state.String())
	case guard.Screened:
		tr.MarkAnomaly("quarantine")
		s.logger.Warn(job.ctx, "update batch fully screened",
			"strategy", t.ScreenStrategy())
	}
	if st.Quarantined > pre.Quarantined {
		tr.MarkAnomaly("quarantine")
	}
	if st.Trips > pre.Trips {
		tr.MarkAnomaly("guard-trip")
	}
	tr.Annotate("outcome", out.String())
	tr.Annotate("guard_state", res.state.String())
	tr.Annotate("canary_regression", strconv.FormatFloat(res.regression, 'g', -1, 64))
	updateOutcomeCounter(out.String()).Inc()
	s.storeGuardView()
	job.done <- res
}

// parseWorkload decodes and resolves a request body into a workload. tr is
// the request's trace; its ID rides along on error responses.
func (s *Server) parseWorkload(w http.ResponseWriter, r *http.Request, tr *obs.Trace) (*workload.Workload, time.Duration, string, bool) {
	var req RecommendRequest
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err), tr.ID())
		return nil, 0, "", false
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, "queries must be non-empty", tr.ID())
		return nil, 0, "", false
	}
	if req.Freqs != nil && len(req.Freqs) != len(req.Queries) {
		writeErr(w, http.StatusBadRequest, "freqs must match queries in length", tr.ID())
		return nil, 0, "", false
	}
	wl := workload.New()
	for i, src := range req.Queries {
		q, err := sql.ParseResolved(src, s.cfg.Schema)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err), tr.ID())
			return nil, 0, "", false
		}
		f := 1.0
		if req.Freqs != nil {
			f = req.Freqs[i]
		}
		wl.Add(q, f)
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > maxTimeout {
			timeout = maxTimeout
		}
	}
	if req.Source != "" {
		tr.Annotate("source", req.Source)
	}
	return wl, timeout, req.Source, true
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only", "")
		return
	}
	// Every request gets a trace, adopting the client's traceparent header
	// when present; the flight recorder decides retention at the end.
	tr := obs.NewTraceFrom("recommend", r.Header.Get("Traceparent"), s.cfg.Clock)
	defer func() {
		tr.End()
		s.flight.Observe(tr)
	}()
	w.Header().Set("Traceparent", tr.Traceparent())
	root := tr.Root()

	if s.draining.Load() {
		drainingTotal.Inc()
		tr.MarkAnomaly("draining")
		writeErr(w, http.StatusServiceUnavailable, "draining", tr.ID())
		return
	}
	wl, timeout, _, ok := s.parseWorkload(w, r, tr)
	if !ok {
		return
	}
	tr.Annotate("workload_fp", fmt.Sprintf("%016x", workloadKey(wl)))
	tr.Annotate("queries", strconv.Itoa(wl.Len()))

	// Admission control: a full queue sheds immediately — backpressure the
	// client can act on beats a request parked in an unbounded queue.
	adm := root.StartChild("serve:admission")
	admitted := s.admission.TryAcquire()
	adm.Annotate("admitted", strconv.FormatBool(admitted))
	adm.Annotate("in_use", strconv.Itoa(s.admission.InUse()))
	adm.End()
	if !admitted {
		shedTotal.Inc()
		tr.MarkAnomaly("shed")
		s.slo.Observe(false)
		s.logger.Warn(obs.ContextWithSpan(r.Context(), root),
			"recommend shed: admission queue full", "cap", s.admission.Cap())
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "over capacity, retry later", tr.ID())
		return
	}
	admittedTotal.Inc()
	inflightGauge.Add(1)
	start := time.Now()
	defer func() {
		inflightGauge.Add(-1)
		s.admission.Release()
		requestSeconds.Observe(time.Since(start).Seconds())
	}()

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ctx = obs.ContextWithSpan(ctx, root)
	resp, err := s.recommend(ctx, wl)
	if err != nil {
		timeoutsTotal.Inc()
		tr.MarkAnomaly("deadline")
		s.slo.Observe(false)
		s.logger.Warn(ctx, "recommend deadline exceeded", "error", err.Error())
		writeErr(w, http.StatusGatewayTimeout, fmt.Sprintf("deadline exceeded: %v", err), tr.ID())
		return
	}
	resp.TraceID = tr.ID()
	tr.Annotate("tier", resp.Tier)
	tierLatency(resp.Tier).Observe(time.Since(start).Seconds())
	s.slo.Observe(true)
	writeJSON(w, http.StatusOK, resp)
}

// recommend walks the degradation ladder: full learned advisor (replica +
// published snapshot, bounded by DegradeAfter and gated by the tier
// breaker), then the fingerprint-keyed cache of previous full answers, then
// the heuristic fallback. Every admitted request gets an answer unless its
// own deadline expires first.
func (s *Server) recommend(ctx context.Context, wl *workload.Workload) (*RecommendResponse, error) {
	key := workloadKey(wl)
	span := obs.SpanFrom(ctx)
	tr := span.Trace()
	// One delta costing session per request: if the ladder evaluates more
	// than one candidate configuration (full tier, then fallback), the later
	// reductions re-cost only the queries the differing indexes touch.
	coster := s.cfg.WhatIf.NewWorkloadCoster(wl.Queries, wl.Freqs)

	if s.breaker.Allow() {
		full := span.StartChild("serve:tier-full")
		degradeCtx, cancel := context.WithTimeout(ctx, s.cfg.DegradeAfter)
		idx, ver, err := s.model.Recommend(obs.ContextWithSpan(degradeCtx, full), wl)
		cancel()
		if err == nil {
			s.breaker.Success()
			red := coster.ReductionCtx(obs.ContextWithSpan(ctx, full), idx)
			full.Annotate("version", strconv.FormatUint(ver, 10))
			full.End()
			s.cache.put(key, cacheEntry{indexes: idx, reduction: red, version: ver})
			tierFull.Inc()
			return s.response(idx, red, "full", ver), nil
		}
		// Replica wait (or restore) failed: count it against the tier and
		// fall down the ladder — unless the request's own deadline is gone.
		full.Annotate("error", err.Error())
		full.End()
		trips := s.breaker.Trips()
		s.breaker.Failure()
		if s.breaker.Trips() > trips {
			tr.MarkAnomaly("breaker-trip")
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	} else {
		span.Event("serve:breaker-open")
		tr.MarkAnomaly("breaker-open")
	}

	if e, ok := s.cache.get(key); ok {
		span.Event("serve:tier-cached", "version", strconv.FormatUint(e.version, 10))
		tr.MarkAnomaly("degraded:cached")
		degradedCached.Inc()
		tierCached.Inc()
		return s.response(e.indexes, e.reduction, "cached", e.version), nil
	}

	heur := span.StartChild("serve:tier-heuristic")
	idx := s.cfg.Fallback.Recommend(wl)
	if ctx.Err() != nil {
		heur.End()
		return nil, ctx.Err()
	}
	red := coster.ReductionCtx(obs.ContextWithSpan(ctx, heur), idx)
	heur.End()
	tr.MarkAnomaly("degraded:heuristic")
	degradedHeur.Inc()
	tierHeuristic.Inc()
	return s.response(idx, red, "heuristic", s.model.Version()), nil
}

func (s *Server) response(idx []cost.Index, red float64, tier string, ver uint64) *RecommendResponse {
	resp := &RecommendResponse{
		Indexes:       make([]string, 0, len(idx)),
		DDL:           make([]string, 0, len(idx)),
		CostReduction: red,
		Tier:          tier,
		ModelVersion:  ver,
	}
	for _, ix := range idx {
		resp.Indexes = append(resp.Indexes, ix.Key())
		resp.DDL = append(resp.DDL, fmt.Sprintf("CREATE INDEX ON %s;", ix.Key()))
	}
	return resp
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only", "")
		return
	}
	tr := obs.NewTraceFrom("update", r.Header.Get("Traceparent"), s.cfg.Clock)
	defer func() {
		tr.End()
		s.flight.Observe(tr)
	}()
	w.Header().Set("Traceparent", tr.Traceparent())
	root := tr.Root()

	wl, timeout, source, ok := s.parseWorkload(w, r, tr)
	if !ok {
		return
	}
	// The batch fingerprint is the forensic join key: the same hash the
	// recommendation cache uses, stamped on the trace so a poisoned batch in
	// the flight recorder is matchable against quarantine entries and logs.
	tr.Annotate("batch_fp", fmt.Sprintf("%016x", workloadKey(wl)))
	tr.Annotate("batch_queries", strconv.Itoa(wl.Len()))

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ctx = obs.ContextWithSpan(ctx, root)
	job := &updateJob{ctx: ctx, w: wl, source: source, qspan: root.StartChild("serve:queue-wait"), done: make(chan updateResult, 1)}

	// Enqueue under the read lock so Drain's barrier can wait us out; the
	// draining check inside the lock makes "checked, then enqueued after the
	// trainer stopped" impossible.
	s.updateMu.RLock()
	if s.draining.Load() {
		s.updateMu.RUnlock()
		drainingTotal.Inc()
		tr.MarkAnomaly("draining")
		writeErr(w, http.StatusServiceUnavailable, "draining", tr.ID())
		return
	}
	select {
	case s.updates <- job:
		s.updateMu.RUnlock()
	default:
		s.updateMu.RUnlock()
		shedTotal.Inc()
		updateOutcomeCounter("shed").Inc()
		job.qspan.Annotate("shed", "true")
		job.qspan.End()
		tr.MarkAnomaly("shed")
		s.slo.Observe(false)
		s.logger.Warn(ctx, "update shed: queue full", "queue_cap", s.cfg.UpdateQueue)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "update queue full, retry later", tr.ID())
		return
	}
	admittedTotal.Inc()

	select {
	case res := <-job.done:
		if res.err != nil {
			timeoutsTotal.Inc()
			tr.MarkAnomaly("deadline")
			s.slo.Observe(false)
			writeErr(w, http.StatusGatewayTimeout, res.err.Error(), tr.ID())
			return
		}
		s.slo.Observe(true)
		writeJSON(w, http.StatusOK, &UpdateResponse{
			Outcome:          res.outcome.String(),
			CanaryRegression: res.regression,
			GuardState:       res.state.String(),
			ModelVersion:     res.version,
			Quarantined:      res.quarantined,
			ScreenStrategy:   s.cfg.Trainer.ScreenStrategy(),
			ScreenDropped:    res.screenDropped,
			TraceID:          tr.ID(),
		})
	case <-ctx.Done():
		// The job stays queued and may still train and swap after this
		// response; the client asked for a deadline, not a cancellation of
		// durable state.
		timeoutsTotal.Inc()
		tr.MarkAnomaly("deadline")
		s.slo.Observe(false)
		writeErr(w, http.StatusGatewayTimeout, "deadline exceeded before the update was processed; it may still apply", tr.ID())
	}
}

func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only", "")
		return
	}
	q := s.cfg.Trainer.Quarantine() // mutex-guarded; safe next to the trainer loop
	entries := q.Entries()
	resp := &QuarantineResponse{Cap: q.Cap(), Evicted: q.Evicted(), Entries: make([]QuarantineEntry, 0, len(entries))}
	for _, e := range entries {
		resp.Entries = append(resp.Entries, QuarantineEntry{Query: e.Query, Reason: e.Reason, Source: e.Source, Seq: e.Seq})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only", "")
		return
	}
	gv := s.guardNow.Load()
	fast, slow := s.slo.Rates()
	writeJSON(w, http.StatusOK, &StatusResponse{
		Ready:           s.Ready(),
		Draining:        s.draining.Load(),
		ModelVersion:    s.model.Version(),
		GuardState:      gv.state,
		GuardStats:      gv.stats,
		ScreenStrategy:  s.cfg.Trainer.ScreenStrategy(),
		AdmissionInUse:  s.admission.InUse(),
		AdmissionCap:    s.admission.Cap(),
		CacheEntries:    s.cache.len(),
		QuarantineLen:   s.cfg.Trainer.Quarantine().Len(),
		FullTierBreaker: s.breaker.State().String(),
		SLOFastBurn:     fast,
		SLOSlowBurn:     slow,
		SLOBreaching:    s.slo.Breaching(),
		FlightRetained:  s.flight.Len(),
	})
}

// handleDrain only signals: the process main owns the actual Drain call, so
// http.Shutdown never waits on the handler that triggered it.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only", "")
		return
	}
	s.drainReqOnce.Do(func() { close(s.drainReq) })
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr emits the JSON error body; traceID ("" when the request never got
// a trace) lets a client join a failure against /debug/traces.
func writeErr(w http.ResponseWriter, code int, msg, traceID string) {
	writeJSON(w, code, errorResponse{Error: msg, TraceID: traceID})
}
