package guard

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/advisor"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/defense"
	"repro/internal/pipa"
	"repro/internal/qgen"
	"repro/internal/workload"
)

// sanitizedVictim builds a DQN-b victim guarded by the defense sanitizer —
// the deployed defense path (guard.Trainer + a defense.Screener) — trained
// on a normal TPC-H workload, plus a small PIPA stress tester against it.
func sanitizedVictim(t *testing.T) (*Trainer, *advisor.Env, *workload.Workload, *pipa.StressTester) {
	t.Helper()
	s := catalog.TPCH(1)
	w := cost.NewWhatIf(cost.NewModel(s))
	env := advisor.NewEnv(s, w)
	nw := workload.GenerateNormal(s, workload.TPCHTemplates(), 14, rand.New(rand.NewSource(13)))
	canary := workload.GenerateNormal(s, workload.TPCHTemplates(), 8, rand.New(rand.NewSource(41)))

	acfg := advisor.DefaultConfig()
	acfg.Trajectories = 30
	acfg.InferTrajectories = 10
	acfg.Hidden = 32
	ia, err := registry.New("DQN-b", env, acfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(ia, Config{Screener: defense.NewSanitizer(w, nw), Canary: canary, Eval: w})
	if err != nil {
		t.Fatal(err)
	}
	tr.Train(nw)

	pcfg := pipa.DefaultConfig(s)
	pcfg.P = 5
	pcfg.Np = 8
	pcfg.Na = 12
	opts := qgen.DefaultOptions()
	opts.CorpusSize = 80
	gen := qgen.TrainIABART(qgen.NewFSM(s), w, nil, opts, 3)
	return tr, env, nw, pipa.NewStressTester(s, w, gen, pcfg)
}

// TestGuardSanitizerKeepsNormalQueries: a poisoned retrain through the
// sanitizer-screened guard keeps every normal query of the merged batch.
func TestGuardSanitizerKeepsNormalQueries(t *testing.T) {
	tr, _, nw, st := sanitizedVictim(t)
	if tr.ScreenStrategy() != "sanitizer" {
		t.Fatalf("ScreenStrategy = %q", tr.ScreenStrategy())
	}
	if tr.TrialBased() != tr.Inner().TrialBased() {
		t.Error("TrialBased not delegated")
	}
	tw := pipa.PIPAInjector{Tester: st}.BuildInjection(context.Background(), tr, 12)
	tr.Retrain(nw.Merge(tw))
	rep := tr.LastScreenReport()
	if rep == nil {
		t.Fatal("no screening report recorded")
	}
	if rep.Kept < nw.Len() {
		t.Errorf("defense dropped normal queries: %s", rep)
	}
	if idx := tr.Recommend(nw); len(idx) == 0 {
		t.Error("no recommendation after defended retrain")
	}
}

// TestGuardSanitizerAllPoisonedScreened: when the sanitizer rejects the
// entire incoming batch, the guard must skip the model update — a defended
// advisor never retrains on zero trusted queries — report the Screened
// outcome, and leave its recommendation unchanged.
func TestGuardSanitizerAllPoisonedScreened(t *testing.T) {
	tr, env, nw, st := sanitizedVictim(t)
	// The hand-built toxic preference of the defense package's
	// TestSanitizerDropsToxicQueries: the mid segment holds columns the
	// reference workload never rewards.
	ranking := []string{
		"lineitem.l_shipdate", "lineitem.l_partkey", "lineitem.l_orderkey",
		"lineitem.l_receiptdate",
		"part.p_retailprice", "customer.c_phone", "supplier.s_acctbal",
		"orders.o_clerk", "partsupp.ps_supplycost",
	}
	seen := make(map[string]bool)
	k := map[string]float64{}
	for i, c := range ranking {
		seen[c] = true
		k[c] = 1 / float64(i+1)
	}
	for _, c := range env.Schema.IndexableColumnNames() {
		if !seen[c] {
			ranking = append(ranking, c)
		}
	}
	tw := st.InjectN(context.Background(), &pipa.Preference{Ranking: ranking, K: k}, st.Cfg.Na)
	before := tr.Recommend(nw)

	// Keep only the queries the sanitizer flags, so the batch is all-poison.
	_, screened := defense.NewSanitizer(env.WhatIf, nw).Screen(tw)
	allBad := &workload.Workload{}
	for i, q := range tw.Queries {
		if _, flagged := screened.Reasons[q.String()]; flagged {
			allBad.Add(q, tw.Freqs[i])
		}
	}
	if allBad.Len() == 0 {
		t.Skip("no toxic queries flagged at this scale")
	}

	tr.Retrain(allBad)
	if tr.LastOutcome() != Screened {
		t.Fatalf("outcome = %v, want screened", tr.LastOutcome())
	}
	rep := tr.LastScreenReport()
	if rep == nil || rep.Kept != 0 || rep.Dropped != allBad.Len() {
		t.Fatalf("all-poisoned batch not fully dropped: %v", rep)
	}
	if st := tr.Stats(); st.Screened != 1 || st.Quarantined != uint64(allBad.Len()) {
		t.Fatalf("stats = %+v, want one screened batch with every query quarantined", st)
	}
	after := tr.Recommend(nw)
	if len(before) != len(after) {
		t.Fatalf("recommendation changed after skipped update: %v vs %v", before, after)
	}
	for i := range before {
		if before[i].Key() != after[i].Key() {
			t.Errorf("recommendation changed after skipped update: %v vs %v", before, after)
			break
		}
	}
}
