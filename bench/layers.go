package main

import (
	"time"

	"repro/internal/obs"
)

// layerInputs is what a traced run measured for the per-layer metrics, all
// over its traced window.
type layerInputs struct {
	window time.Duration // traced wall time
	procs  int           // GOMAXPROCS: window × procs is the machine time shares divide
	fgOps  int           // foreground operations completed in the window

	spans                   *spanTotals              // every owner's spans, folded to self time
	topUs                   map[string]int64         // per owner ("replica", "trainer"): Σ top-level span durations
	client                  map[string]time.Duration // per client operation kind: Σ traced latency
	deltas                  map[string]int64         // obs counter deltas over the window
	restores, restoredBytes int64                    // traced Restore calls and the snapshot bytes they decoded

	gridWall time.Duration // paper-grid: wall time of the traced grids
	workers  int           // paper-grid: par pool width

	whatifEntries int // entries in the workload's what-if cache at the end of the window

	answers, fullTier int            // recommend answers and how many came from the full tier
	updates           map[string]int // traced updates: count per verdict, "<source>.sent" and "<source>.dropped" queries

	overhead float64 // traced ÷ untraced foreground p50 − 1
}

// counterNames are the obs counters per-layer metrics difference.
var counterNames = []string{
	"cost_whatif_calls_total", "cost_whatif_hits_total", "cost_plans_total",
	"cost_coster_recosted_total", "cost_coster_reused_total",
	"advisor_episodes_total", "advisor_trials_total",
	"qgen_generate_attempts_total", "qgen_generate_accepted_total",
	"pipa_probe_epochs_total", "pipa_inject_attempts_total", "pipa_inject_accepted_total",
	"serve_shed_total", "serve_swaps_total",
}

// counterSnapshot reads the counters per-layer metrics use.
func counterSnapshot() map[string]int64 {
	all := obs.Default.Metrics.Snapshot().Counters
	out := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		out[n] = all[n]
	}
	return out
}

// addDeltas accumulates after − before into dst.
func addDeltas(dst, before, after map[string]int64) {
	for _, n := range counterNames {
		dst[n] += after[n] - before[n]
	}
}

func newLayerInputs() *layerInputs {
	return &layerInputs{
		spans: newSpanTotals(), topUs: map[string]int64{}, client: map[string]time.Duration{},
		deltas: map[string]int64{}, updates: map[string]int{},
	}
}

// perLayer is the per-layer metric set. Every workload reports every metric,
// zero where the layer does no work. Layer time is reported as a share of
// machine time (GOMAXPROCS × traced wall time) spent in the layer's own code,
// so the split reads the same way on every workload; the only absolute
// per-layer time is per advisor Recommend call, which every workload makes.
func perLayer(in *layerInputs) map[string]metric {
	machineUs := float64(in.procs) * float64(in.window.Microseconds())
	share := func(us int64) float64 { return ratio(float64(us), machineUs) }
	self := in.spans.selfUs
	perOp := func(counter string) float64 { return ratio(float64(in.deltas[counter]), float64(in.fgOps)) }
	frac := func(part, whole string) float64 {
		return ratio(float64(in.deltas[part]), float64(in.deltas[whole]))
	}
	clientSelf := func(kind, owner string) float64 {
		return share(max(0, in.client[kind].Microseconds()-in.topUs[owner]))
	}
	parIdle := 0.0
	if in.gridWall > 0 {
		parIdle = 1 - ratio(float64(in.topUs["cell"]), float64(in.workers)*float64(in.gridWall.Microseconds()))
	}
	dropRate := func(source string) float64 {
		return ratio(float64(in.updates[source+".dropped"]), float64(in.updates[source+".sent"]))
	}
	return map[string]metric{
		"experiments.cell_frac":     {share(self[spanCell]), "ratio"},
		"par.idle_frac":             {parIdle, "ratio"},
		"advisor.train_frac":        {share(self[spanTrain]), "ratio"},
		"advisor.retrain_frac":      {share(self[spanRetrain]), "ratio"},
		"advisor.recommend_frac":    {share(self[spanRecommend]), "ratio"},
		"advisor.clone_frac":        {share(self[spanClone]), "ratio"},
		"pipa.inject_frac":          {share(self[spanInject]), "ratio"},
		"pipa.stress_frac":          {share(self[spanStress]), "ratio"},
		"snap.restore_frac":         {share(self[spanRestore]), "ratio"},
		"snap.snapshot_frac":        {share(self[spanSnapshot]), "ratio"},
		"defense.sanitizer_frac":    {share(self[spanScreenPref+"sanitizer"]), "ratio"},
		"defense.trim_frac":         {share(self[spanScreenPref+"trim"]), "ratio"},
		"defense.trim_fit_frac":     {share(self[spanScreenPref+"trim.fit"]), "ratio"},
		"serve.recommend_self_frac": {clientSelf(opRecommend, "replica"), "ratio"},
		"serve.update_self_frac":    {clientSelf(opUpdate, "trainer"), "ratio"},

		"advisor.recommend_ms": {ratio(float64(self[spanRecommend])/1e3, float64(in.spans.calls[spanRecommend])), "ms"},

		"cost.whatif_calls_per_op": {perOp("cost_whatif_calls_total"), "count"},
		"cost.plans_per_op":        {perOp("cost_plans_total"), "count"},
		"advisor.episodes_per_op":  {perOp("advisor_episodes_total"), "count"},
		"advisor.trials_per_op":    {perOp("advisor_trials_total"), "count"},
		"pipa.probe_epochs_per_op": {perOp("pipa_probe_epochs_total"), "count"},
		"cost.whatif_entries":      {float64(in.whatifEntries), "count"},
		"snap.restore_bytes":       {ratio(float64(in.restoredBytes), float64(in.restores)), "B"},
		"serve.shed":               {float64(in.deltas["serve_shed_total"]), "count"},
		"serve.swaps":              {float64(in.deltas["serve_swaps_total"]), "count"},
		"guard.commits":            {float64(in.updates["committed"]), "count"},
		"guard.rollbacks":          {float64(in.updates["rolled-back"]), "count"},
		"guard.screened":           {float64(in.updates["screened"]), "count"},
		"guard.frozen":             {float64(in.updates["frozen"]), "count"},

		"cost.whatif_hit_rate":     {frac("cost_whatif_hits_total", "cost_whatif_calls_total"), "ratio"},
		"cost.coster_recost_frac":  {ratio(float64(in.deltas["cost_coster_recosted_total"]), float64(in.deltas["cost_coster_recosted_total"]+in.deltas["cost_coster_reused_total"])), "ratio"},
		"qgen.accept_rate":         {frac("qgen_generate_accepted_total", "qgen_generate_attempts_total"), "ratio"},
		"pipa.inject_accept_rate":  {frac("pipa_inject_accepted_total", "pipa_inject_attempts_total"), "ratio"},
		"serve.full_tier_frac":     {ratio(float64(in.fullTier), float64(in.answers)), "ratio"},
		"defense.poison_drop_rate": {dropRate("pipa"), "ratio"},
		"defense.clean_drop_rate":  {dropRate("clean"), "ratio"},
		"obs.trace_overhead_frac":  {in.overhead, "ratio"},
	}
}

// foldTracers ends the tracers of one owner group ("cell", "replica",
// "trainer") and folds their spans into in.
func (in *layerInputs) foldTracers(owner string, ts []*tracer) {
	for _, t := range ts {
		t.tr.End()
		root := t.tr.Snapshot().Root
		in.spans.add(root)
		for _, c := range root.Children {
			in.topUs[owner] += c.DurUs
		}
		in.restores += t.restores
		in.restoredBytes += t.restoredBytes
	}
}
