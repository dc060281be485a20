package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/advisor/heuristic"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/defense/trim"
	"repro/internal/guard"
	"repro/internal/obs"
	olog "repro/internal/obs/log"
	"repro/internal/pipa"
	"repro/internal/qgen"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/workload"
)

const (
	opRecommend = "recommend"
	opUpdate    = "update"
	opWarmup    = "warmup"
)

// serveMix is one advisord configuration and the closed-loop traffic it
// receives.
type serveMix struct {
	name       string
	advisor    string // advisord -advisor
	screen     string // advisord -screen
	recClients int    // closed-loop recommend clients
	fresh      bool   // recommends carry a fresh workload each instead of cycling the pool
	updates    bool   // one closed-loop update client alternating clean and PIPA batches
	fg         string // the operation end-to-end metrics time; its tail is p99
	replay     int    // leading updates replayed offline on an identical trainer
	goldenLen  int    // leading update verdicts a golden file holds
	// Fixed work: when set, the foreground client sends this many operations
	// per second of run length, so the what-if cache, which grows with every
	// distinct query, ends the run at about the same size whatever the speed.
	fgPerSec int
}

// guardBudget is advisord's default -guard-budget; every mix runs at it.
const guardBudget = 0.02

var (
	serveHot = serveMix{name: "serve-hot", advisor: "DQN-b", screen: "none", recClients: 2, fg: opRecommend}
	// The update client's verdicts are the point of serve-update, so updates
	// are its foreground; the recommend client keeps the what-if cache
	// missing alongside until the last update returns.
	serveUpdate = serveMix{name: "serve-update", advisor: "DBAbandit-b", screen: "sanitizer+trim",
		recClients: 1, fresh: true, updates: true, fg: opUpdate, replay: 500, goldenLen: 6000, fgPerSec: 400}
	// The foreground is the read path next to the retrains: a run holds only
	// about 15 retrains, too few for a tail.
	serveRetrain = serveMix{name: "serve-retrain", advisor: "DQN-b", screen: "sanitizer",
		recClients: 1, updates: true, fg: opRecommend, replay: 2, goldenLen: 10}
)

// serveSizes scales the serve workloads; tests shrink them.
type serveSizes struct {
	trajectories int // advisord -trajectories
	setupReps    int // least daemon start-ups per run, at least 2: the first is kept as an offline twin
	pool         int // recommend workloads the non-fresh clients cycle
	poolQueries  int // queries per recommend workload
	batchQueries int // queries per update batch
	injections   int // distinct PIPA injections the update client cycles
}

var defaultServe = serveSizes{trajectories: 120, setupReps: 3, pool: 64, poolQueries: 18, batchQueries: 8, injections: 8}

// advisordSeed is advisord's default -seed. The daemon is always the same
// deployment; the workload seed drives only the traffic it receives.
const advisordSeed = 1

// daemon is one in-process advisord.
type daemon struct {
	srv      *serve.Server
	url      string
	trainer  *guard.Trainer
	schema   *catalog.Schema
	whatIf   *cost.WhatIf
	env      *advisor.Env
	cfg      advisor.Config
	trainerT *tracer   // traced runs: the trainer's inner advisor and screeners
	replicaT []*tracer // traced runs: one per serving replica
}

// startDaemon builds advisord the way cmd/advisord's main does with the
// mix's flags and every other flag at its default, and starts it on a
// loopback port. In a traced run the trainer's inner advisor, the screeners
// built over it and every replica are decorated.
func startDaemon(mix serveMix, sz serveSizes, traced bool, on *atomic.Bool) (*daemon, error) {
	const seed = advisordSeed
	s := catalog.TPCH(1)
	whatIf := cost.NewWhatIf(cost.NewModel(s))
	env := advisor.NewEnv(s, whatIf)
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = sz.trajectories
	cfg.Seed = seed
	d := &daemon{schema: s, whatIf: whatIf, env: env, cfg: cfg}
	inner, err := registry.New(mix.advisor, env, cfg)
	if err != nil {
		return nil, err
	}
	if traced {
		d.trainerT = newTracer("trainer", on)
		ti, err := traceAdvisor(inner, d.trainerT)
		if err != nil {
			return nil, err
		}
		inner = ti
	}
	size := workload.DefaultSize(s)
	canary := workload.GenerateNormal(s, workload.TemplatesFor(s), max(4, size/2),
		rand.New(rand.NewSource(seed*100000+7_777_777)))
	nw := workload.GenerateNormal(s, workload.TemplatesFor(s), size, rand.New(rand.NewSource(seed)))
	screener, err := trim.BuildScreener(mix.screen, inner, whatIf, nw, seed)
	if err != nil {
		return nil, err
	}
	if traced {
		screener = traceScreener(screener, d.trainerT)
	}
	d.trainer, err = guard.NewTrainer(inner, guard.Config{Budget: guardBudget, Canary: canary, Eval: whatIf, Screener: screener})
	if err != nil {
		return nil, err
	}
	d.trainer.Train(nw)
	d.srv, err = serve.NewServer(serve.Config{
		Trainer: d.trainer,
		NewReplica: func() (advisor.Advisor, error) {
			r, err := registry.New(mix.advisor, env, cfg)
			if err != nil || !traced {
				return r, err
			}
			t := newTracer("replica", on)
			d.replicaT = append(d.replicaT, t)
			return traceAdvisor(r, t)
		},
		Fallback:       heuristic.New(env, cfg.Budget, false),
		WhatIf:         whatIf,
		Schema:         s,
		QueueDepth:     64,
		Replicas:       2,
		UpdateQueue:    4,
		DefaultTimeout: 5 * time.Second,
		CacheCap:       1024,
		// advisord logs to stderr; the bench keeps the formatting work and
		// drops the bytes, which would otherwise flood the benchmark's stderr.
		Logger: olog.New(io.Discard, olog.LevelInfo, nil),
	})
	if err != nil {
		return nil, err
	}
	addr, err := d.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + addr
	return d, nil
}

// stop drains the daemon; afterwards its trainer is safe to use directly.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return d.srv.Drain(ctx)
}

func (d *daemon) snapshot() ([]byte, error) {
	return d.trainer.Inner().(advisor.Snapshotter).Snapshot()
}

// request is one prepared HTTP body.
type request struct {
	body   []byte
	source string
}

func newRequest(w *workload.Workload, source string) (*request, error) {
	req := serve.RecommendRequest{Source: source}
	for i, q := range w.Queries {
		req.Queries = append(req.Queries, q.String())
		req.Freqs = append(req.Freqs, w.Freqs[i])
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &request{body: body, source: source}, nil
}

// parse resolves the body the way the daemon's parseWorkload does.
func (r *request) parse(s *catalog.Schema) (*workload.Workload, error) {
	var req serve.RecommendRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return nil, err
	}
	w := workload.New()
	for i, src := range req.Queries {
		q, err := sql.ParseResolved(src, s)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		w.Add(q, req.Freqs[i])
	}
	return w, nil
}

// rngFor derives an independent deterministic stream per (seed, purpose, i).
func rngFor(seed int64, purpose string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, purpose, i)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// tpchWorkload is the i-th seed-generated TPC-H workload of a stream.
func tpchWorkload(s *catalog.Schema, seed int64, purpose string, i, n int) (*request, error) {
	return newRequest(workload.GenerateNormal(s, workload.TemplatesFor(s), n, rngFor(seed, purpose, i)), "")
}

// updateSeed seeds the update stream: its clean batches and the PIPA campaign
// against the daemon. Like the daemon, the stream is fixed: which batches
// happen to commit early decides how far the guarded model drifts, and with
// it the whole verdict mix — how many updates are rolled back, or refused
// while the guard is frozen — so a per-seed stream would make the seed, not
// the system, set the update cost. The workload seed varies the reads.
const updateSeed = 1

// injections builds the PIPA injections against clones of the twin's trained
// advisor, one stress tester seed each, sized like a clean update batch.
func injections(ctx context.Context, twin *daemon, sz serveSizes) ([]*request, error) {
	s := twin.schema
	gen := qgen.TrainIABART(qgen.NewFSM(s), twin.whatIf, nil, qgen.DefaultOptions(), updateSeed)
	out := make([]*request, sz.injections)
	for k := range out {
		cfg := pipa.DefaultConfig(s)
		cfg.Seed = updateSeed*1000 + int64(k)
		st := pipa.NewStressTester(s, twin.whatIf, gen, cfg)
		victim := twin.trainer.Inner().(advisor.Cloner).CloneAdvisor()
		w := pipa.PIPAInjector{Tester: st}.BuildInjection(ctx, victim, sz.batchQueries)
		r, err := newRequest(w, "pipa")
		if err != nil {
			return nil, err
		}
		out[k] = r
	}
	return out, nil
}

// client posts JSON to one daemon.
type client struct {
	hc  *http.Client
	url string
}

// post sends body and decodes a 200 answer into v. The latency covers the
// round trip including reading the answer, not decoding it.
func (c *client) post(path string, body []byte, v any) (time.Duration, error) {
	t := time.Now()
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(t), err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return d, json.Unmarshal(b, v)
}

func (c *client) status() (*serve.StatusResponse, error) {
	resp, err := c.hc.Get(c.url + "/v1/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// answer is a recommend response without its per-request trace ID.
type answer struct {
	Indexes   string
	Reduction float64
	Tier      string
	Version   uint64
}

func answerOf(r *serve.RecommendResponse) answer {
	return answer{Indexes: strings.Join(r.Indexes, ","), Reduction: r.CostReduction, Tier: r.Tier, Version: r.ModelVersion}
}

// reference recomputes full-tier answers out of band: a fresh advisor from
// the registry over its own schema and what-if cache, restored from a
// snapshot before every Recommend as a serving replica is, with the
// reduction taken from a fresh WorkloadCoster.
type reference struct {
	schema *catalog.Schema
	whatIf *cost.WhatIf
	adv    advisor.Advisor
	blob   []byte
}

func newReference(mix serveMix, sz serveSizes, blob []byte) (*reference, error) {
	s := catalog.TPCH(1)
	whatIf := cost.NewWhatIf(cost.NewModel(s))
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = sz.trajectories
	cfg.Seed = advisordSeed
	adv, err := registry.New(mix.advisor, advisor.NewEnv(s, whatIf), cfg)
	if err != nil {
		return nil, err
	}
	return &reference{schema: s, whatIf: whatIf, adv: adv, blob: blob}, nil
}

func (r *reference) answer(req *request) (answer, error) {
	w, err := req.parse(r.schema)
	if err != nil {
		return answer{}, err
	}
	if err := r.adv.(advisor.Snapshotter).Restore(r.blob); err != nil {
		return answer{}, err
	}
	idx := r.adv.Recommend(w)
	keys := make([]string, len(idx))
	for i, ix := range idx {
		keys[i] = ix.Key()
	}
	red := r.whatIf.NewWorkloadCoster(w.Queries, w.Freqs).Reduction(idx)
	return answer{Indexes: strings.Join(keys, ","), Reduction: red, Tier: "full", Version: 1}, nil
}

// reduction recomputes an answer's cost reduction from its index keys.
func (r *reference) reduction(req *request, a answer) (float64, error) {
	w, err := req.parse(r.schema)
	if err != nil {
		return 0, err
	}
	var idx []cost.Index
	for _, key := range strings.Split(a.Indexes, ",") {
		if key == "" {
			continue
		}
		table, cols, ok := strings.Cut(strings.TrimSuffix(key, ")"), "(")
		if !ok {
			return 0, fmt.Errorf("malformed index key %q", key)
		}
		var qualified []string
		for _, c := range strings.Split(cols, ",") {
			qualified = append(qualified, table+"."+c)
		}
		idx = append(idx, cost.NewIndex(qualified...))
	}
	return r.whatIf.NewWorkloadCoster(w.Queries, w.Freqs).Reduction(idx), nil
}

// verdict is one update's answer.
type verdict struct {
	source  string
	outcome string
	dropped int
}

// code renders a verdict compactly for golden files: the outcome's first
// letter and the screen drop count.
func (v verdict) code() string { return fmt.Sprintf("%c%d", v.outcome[0], v.dropped) }

// loadLog is what one load goroutine recorded.
type loadLog struct {
	ops      map[string]*ops // untraced operations by kind
	traced   map[string]*ops // operations started while tracing was on
	traces   []*obs.Trace
	errs     []string
	answers  map[[2]uint64]answer // (pool entry, model version) → the answer first seen
	sampled  []sampledAnswer      // fresh mixes: every sampleEvery-th answer, checked afterwards
	nonFull  int
	verdicts []verdict
	sent     []*request     // update bodies kept for the offline replay
	window   map[string]int // verdicts and screen drops of traced updates
}

// sampleEvery thins the fresh-workload answers kept for checking.
const sampleEvery = 16

type sampledAnswer struct {
	req *request
	ans answer
}

func newLoadLog(first map[[2]uint64]answer) *loadLog {
	l := &loadLog{ops: map[string]*ops{}, traced: map[string]*ops{}, answers: map[[2]uint64]answer{}, window: map[string]int{}}
	for k, v := range first {
		l.answers[k] = v
	}
	return l
}

// timed runs one operation; it counts under traced ops, with a client trace,
// when tracing was on at its start.
func (l *loadLog) timed(kind string, on *atomic.Bool, f func() (time.Duration, error)) (bool, error) {
	traced := on.Load()
	m := l.ops
	var tr *obs.Trace
	if traced {
		m = l.traced
		tr = obs.NewTrace("client."+kind, nil)
	}
	d, err := f()
	if tr != nil {
		tr.End()
		l.traces = append(l.traces, tr)
	}
	if m[kind] == nil {
		m[kind] = &ops{}
	}
	o := m[kind]
	o.attempted++
	if err != nil {
		o.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
	} else {
		o.lat = append(o.lat, d)
	}
	return traced, err
}

// recommendClient is one closed-loop recommend client. Pool mixes cycle the
// pool from offset and require every answer to equal the first answer seen
// for its (entry, model version); fresh mixes send the i-th workload of the
// "fresh" stream and keep a sample of answers for checking.
func recommendClient(c *client, l *loadLog, mix serveMix, pool []*request, offset int, until func(i int) bool,
	on *atomic.Bool, s *catalog.Schema, seed int64, sz serveSizes) {
	for i := 0; until(i); i++ {
		entry := (offset + i) % len(pool)
		req := pool[entry]
		if mix.fresh {
			r, err := tpchWorkload(s, seed, "fresh", i, sz.poolQueries)
			if err != nil {
				l.errs = append(l.errs, err.Error())
				return
			}
			req = r
		}
		var resp serve.RecommendResponse
		l.timed(opRecommend, on, func() (time.Duration, error) {
			d, err := c.post("/v1/recommend", req.body, &resp)
			if err != nil {
				return d, err
			}
			a := answerOf(&resp)
			if a.Tier != "full" {
				l.nonFull++
				return d, fmt.Errorf("recommend answered from the %s tier", a.Tier)
			}
			if mix.fresh {
				if i%sampleEvery == 0 {
					l.sampled = append(l.sampled, sampledAnswer{req, a})
				}
				return d, nil
			}
			key := [2]uint64{uint64(entry), a.Version}
			if prev, ok := l.answers[key]; ok && prev != a {
				return d, fmt.Errorf("pool entry %d at v%d answered %+v, earlier %+v", entry, a.Version, a, prev)
			}
			l.answers[key] = a
			return d, nil
		})
	}
}

// updateClient is the closed-loop update client: even updates carry a fresh
// clean TPC-H batch of the fixed update stream, odd ones cycle the
// precomputed PIPA injections.
func updateClient(c *client, l *loadLog, mix serveMix, inj []*request, until func(i int) bool,
	on *atomic.Bool, s *catalog.Schema, sz serveSizes) {
	for k := 0; until(k); k++ {
		req := inj[(k/2)%len(inj)]
		if k%2 == 0 {
			r, err := newRequest(workload.GenerateNormal(s, workload.TemplatesFor(s), sz.batchQueries, rngFor(updateSeed, "clean", k)), "clean")
			if err != nil {
				l.errs = append(l.errs, err.Error())
				return
			}
			req = r
		}
		var resp serve.UpdateResponse
		traced, err := l.timed(opUpdate, on, func() (time.Duration, error) {
			return c.post("/v1/update", req.body, &resp)
		})
		v := verdict{source: req.source, outcome: resp.Outcome, dropped: resp.ScreenDropped}
		if err != nil {
			v.outcome = "error"
		}
		l.verdicts = append(l.verdicts, v)
		if len(l.sent) < mix.replay {
			l.sent = append(l.sent, req)
		}
		if traced {
			l.window[v.outcome]++
			l.window[v.source+".sent"] += sz.batchQueries
			l.window[v.source+".dropped"] += v.dropped
		}
	}
}

// traceWindow turns span recording on for the middle half of the timed
// phase, records the obs counters around it, and reads the what-if cache
// size at its end.
func traceWindow(start time.Time, d time.Duration, on *atomic.Bool, li *layerInputs, whatIf *cost.WhatIf) {
	time.Sleep(time.Until(start.Add(d / 4)))
	before := counterSnapshot()
	t := time.Now()
	on.Store(true)
	time.Sleep(time.Until(start.Add(3 * d / 4)))
	on.Store(false)
	li.window = time.Since(t)
	addDeltas(li.deltas, before, counterSnapshot())
	li.whatifEntries = whatIf.CacheStats().Entries
}

// runServe runs one advisord traffic mix.
func runServe(ctx context.Context, o runOpts, mix serveMix, sz serveSizes) (out *outcome, err error) {
	out = newOutcome(mix.fg, 0.99)
	clients := map[string]int{opRecommend: mix.recClients}
	warmup := "none"
	if mix.updates {
		clients[opUpdate] = 1
	}
	if !mix.fresh {
		warmup = fmt.Sprintf("one untimed pass over the %d-workload pool", sz.pool)
	}
	out.load = loadInfo{Clients: clients, Loop: "closed", RunS: o.duration.Seconds(), Warmup: warmup, SetupReps: sz.setupReps}

	// Set-up: start advisord setupReps times and serve from the last start.
	// The first is drained and kept as the twin: same seed, same model, so
	// its trainer replays the served update stream offline and its snapshot
	// is the served model's version 1.
	var twin, served *daemon
	var twinBlob []byte
	defer func() {
		if served != nil {
			if serr := served.stop(); serr != nil && err == nil {
				err = fmt.Errorf("%s: drain advisord: %w", mix.name, serr)
			}
		}
	}()
	var spent time.Duration
	for i := 0; ; i++ {
		last := i+1 >= maxSetupReps || i+1 >= sz.setupReps && spent >= minSetup
		runtime.GC()
		t := time.Now()
		d, err := startDaemon(mix, sz, o.traced, o.on)
		dt := time.Since(t)
		spent += dt
		out.setup = append(out.setup, dt)
		if err != nil {
			return nil, fmt.Errorf("%s: start advisord: %w", mix.name, err)
		}
		if last {
			served = d
			break
		}
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("%s: drain advisord: %w", mix.name, err)
		}
		blob, err := d.snapshot()
		if err != nil {
			return nil, fmt.Errorf("%s: snapshot: %w", mix.name, err)
		}
		if i == 0 {
			twin, twinBlob = d, blob
			continue
		}
		out.check("every start-up trains the same model", bytes.Equal(blob, twinBlob),
			"start-up %d: snapshots differ (%d vs %d bytes)", i, len(blob), len(twinBlob))
	}
	if twin == nil {
		return nil, fmt.Errorf("%s: need at least 2 set-up repetitions, have %d", mix.name, sz.setupReps)
	}
	out.load.SetupReps = len(out.setup)

	s := served.schema
	pool := make([]*request, sz.pool)
	for i := range pool {
		if pool[i], err = tpchWorkload(s, o.seed, "pool", i, sz.poolQueries); err != nil {
			return nil, err
		}
	}
	var inj []*request
	if mix.updates {
		if inj, err = injections(ctx, twin, sz); err != nil {
			return nil, fmt.Errorf("%s: build injections: %w", mix.name, err)
		}
	}
	ref, err := newReference(mix, sz, twinBlob)
	if err != nil {
		return nil, err
	}
	c := &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute}, url: served.url}
	defer c.hc.CloseIdleConnections()

	first := map[[2]uint64]answer{}
	if !mix.fresh {
		warm := out.op(opWarmup)
		var firsts []string
		for i, r := range pool {
			var resp serve.RecommendResponse
			d, err := c.post("/v1/recommend", r.body, &resp)
			warm.attempted++
			if err != nil {
				warm.failed++
				continue
			}
			warm.lat = append(warm.lat, d)
			a := answerOf(&resp)
			first[[2]uint64{uint64(i), a.Version}] = a
			firsts = append(firsts, a.Indexes)
			want, err := ref.answer(r)
			out.check("first answer per pool entry equals the out-of-band restore+recommend",
				err == nil && a == want, "entry %d: got %+v, want %+v (%v)", i, a, want, err)
		}
		out.outputs["first_answers"] = strings.Join(firsts, "\n")
	}

	// The timed phase: the foreground clients run closed loops until the
	// deadline, or until they have sent their fixed work; the other clients
	// are load and stop once the foreground is done, so every timed operation
	// runs under the same contention, and the timed phase is the
	// foreground's own wall time. A traced run records spans in the middle
	// half of the run length.
	var li *layerInputs
	var fgWG, loadWG sync.WaitGroup
	var fgDone atomic.Bool
	start := time.Now()
	deadline := start.Add(o.duration)
	fgUntil := func(int) bool { return time.Now().Before(deadline) }
	if mix.fgPerSec > 0 {
		n := int(float64(mix.fgPerSec) * o.duration.Seconds())
		fgUntil = func(i int) bool { return i < n }
	}
	loadUntil := func(int) bool { return !fgDone.Load() }
	group := func(kind string) (*sync.WaitGroup, func(int) bool) {
		if kind == mix.fg {
			return &fgWG, fgUntil
		}
		return &loadWG, loadUntil
	}
	if o.traced {
		li = newLayerInputs()
		li.procs = runtime.GOMAXPROCS(0)
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			traceWindow(start, o.duration, o.on, li, served.whatIf)
		}()
	}
	recs := make([]*loadLog, mix.recClients)
	for ci := range recs {
		recs[ci] = newLoadLog(first)
		wg, until := group(opRecommend)
		wg.Add(1)
		go func(l *loadLog, offset int) {
			defer wg.Done()
			recommendClient(c, l, mix, pool, offset, until, o.on, s, o.seed, sz)
		}(recs[ci], ci*len(pool)/mix.recClients)
	}
	upd := newLoadLog(nil)
	if mix.updates {
		wg, until := group(opUpdate)
		wg.Add(1)
		go func() {
			defer wg.Done()
			updateClient(c, upd, mix, inj, until, o.on, s, sz)
		}()
	}
	fgWG.Wait()
	out.elapsed = time.Since(start)
	fgDone.Store(true)
	loadWG.Wait()
	out.heapMB = liveHeapMB()

	logs := append(recs, upd)
	for _, l := range logs {
		for kind, op := range l.ops {
			out.op(kind).merge(op)
		}
		for kind, op := range l.traced {
			out.op(kind + "-traced").merge(op)
		}
		out.check("load goroutine saw no errors", len(l.errs) == 0, "%s", strings.Join(l.errs, "; "))
		out.traces = append(out.traces, l.traces...)
	}
	for _, l := range recs {
		for _, sa := range l.sampled {
			red, err := ref.reduction(sa.req, sa.ans)
			out.check("sampled fresh answer: reduction equals a fresh WorkloadCoster's", err == nil && red == sa.ans.Reduction,
				"got %v, want %v (%v)", sa.ans.Reduction, red, err)
			if sa.ans.Version == 1 {
				want, err := ref.answer(sa.req)
				out.check("sampled fresh v1 answer equals the out-of-band restore+recommend", err == nil && sa.ans == want,
					"got %+v, want %+v (%v)", sa.ans, want, err)
			}
		}
	}
	if want, ok := golden(mix.name + fmt.Sprintf("-seed%d.txt", o.seed)); ok && !mix.updates {
		out.check("first answers equal golden", out.outputs["first_answers"] == want, "got\n%s\nwant\n%s", out.outputs["first_answers"], want)
		out.verified = "golden"
	}
	if mix.updates {
		checkUpdates(out, mix, c, upd, twin, sz)
	} else {
		st, err := c.status()
		out.check("model version stays 1 without updates", err == nil && st.ModelVersion == 1, "status %+v (%v)", st, err)
	}

	if o.traced {
		li.foldTracers("replica", served.replicaT)
		li.foldTracers("trainer", []*tracer{served.trainerT})
		for _, t := range append(append([]*tracer{}, served.replicaT...), served.trainerT) {
			out.traces = append(out.traces, t.tr)
		}
		for _, kind := range []string{opRecommend, opUpdate} {
			if op := out.ops[kind+"-traced"]; op != nil {
				for _, d := range op.lat {
					li.client[kind] += d
				}
			}
		}
		tr, un := out.ops[mix.fg+"-traced"], out.ops[mix.fg]
		if tr != nil && un != nil {
			li.fgOps = len(tr.lat)
			li.overhead = ratio(ms(median(tr.lat)), ms(median(un.lat))) - 1
		}
		for _, l := range recs {
			for _, op := range []*ops{l.ops[opRecommend], l.traced[opRecommend]} {
				if op != nil {
					li.answers += op.attempted
				}
			}
			li.fullTier -= l.nonFull
		}
		li.fullTier += li.answers
		li.updates = upd.window
		out.layers = li
	}
	return out, nil
}

// checkUpdates checks the update stream: the final status agrees with the
// verdicts, the twin trainer replaying the leading batches offline reaches
// the same verdicts, and at the default sizes the verdicts match the golden
// ones.
func checkUpdates(out *outcome, mix serveMix, c *client, upd *loadLog, twin *daemon, sz serveSizes) {
	commits := 0
	codes := make([]string, len(upd.verdicts))
	summary := map[string]int{}
	for i, v := range upd.verdicts {
		if v.outcome == "committed" {
			commits++
		}
		codes[i] = v.code()
		summary[v.source+" "+v.outcome]++
		summary[v.source+" dropped"] += v.dropped
	}
	st, err := c.status()
	out.check("status model_version is 1 + commits", err == nil && st.ModelVersion == uint64(1+commits) &&
		st.GuardStats.Commits == uint64(commits) && st.GuardStats.Attempts == uint64(len(upd.verdicts)),
		"status %+v after %d updates with %d commits (%v)", st, len(upd.verdicts), commits, err)

	mismatches := 0
	var first string
	for k, req := range upd.sent {
		w, err := req.parse(twin.schema)
		if err != nil {
			out.check("replayed batch parses", false, "batch %d: %v", k, err)
			return
		}
		twin.trainer.SetProvenance(req.source)
		twin.trainer.RetrainCtx(context.Background(), w)
		got := verdict{source: req.source, outcome: twin.trainer.LastOutcome().String()}
		if rep := twin.trainer.LastScreenReport(); rep != nil {
			got.dropped = rep.Dropped
		}
		if got != upd.verdicts[k] {
			mismatches++
			if first == "" {
				first = fmt.Sprintf("update %d: served %+v, replayed %+v", k, upd.verdicts[k], got)
			}
		}
	}
	out.check(fmt.Sprintf("first %d verdicts equal an offline replay on the twin trainer", len(upd.sent)),
		mismatches == 0, "%d mismatches; %s", mismatches, first)

	n := min(len(codes), mix.goldenLen)
	out.outputs["verdicts"] = strings.Join(codes[:n], " ")
	var keys []string
	for k := range summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d ", k, summary[k])
	}
	out.outputs["verdict_summary"] = strings.TrimSpace(b.String())
	// The update stream does not depend on the seed, so every seed run at the
	// default sizes must reach the committed verdicts.
	if sz != defaultServe {
		return
	}
	if want, ok := golden(mix.name + ".txt"); ok {
		wantCodes := strings.Fields(want)
		m := min(n, len(wantCodes))
		out.check("verdicts equal golden", strings.Join(codes[:m], " ") == strings.Join(wantCodes[:m], " "),
			"got %s\nwant %s", strings.Join(codes[:m], " "), strings.Join(wantCodes[:m], " "))
		out.verified = "golden"
	}
}
