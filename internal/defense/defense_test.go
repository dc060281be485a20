package defense

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/pipa"
	"repro/internal/qgen"
	"repro/internal/sql"
	"repro/internal/workload"
)

func setup(t *testing.T) (*advisor.Env, *workload.Workload, *pipa.StressTester) {
	t.Helper()
	s := catalog.TPCH(1)
	w := cost.NewWhatIf(cost.NewModel(s))
	env := advisor.NewEnv(s, w)
	nw := workload.GenerateNormal(s, workload.TPCHTemplates(), 14, rand.New(rand.NewSource(13)))
	cfg := pipa.DefaultConfig(s)
	cfg.P = 5
	cfg.Np = 8
	cfg.Na = 12
	opts := qgen.DefaultOptions()
	opts.CorpusSize = 80
	gen := qgen.TrainIABART(qgen.NewFSM(s), w, nil, opts, 3)
	return env, nw, pipa.NewStressTester(s, w, gen, cfg)
}

func TestSanitizerKeepsNormalQueries(t *testing.T) {
	env, nw, _ := setup(t)
	san := NewSanitizer(env.WhatIf, nw)
	// Screening a second normal workload (different parameters, same
	// templates): the vast majority must pass.
	other := workload.GenerateNormal(env.Schema, workload.TPCHTemplates(), 14, rand.New(rand.NewSource(29)))
	kept, report := san.Screen(other)
	if frac := float64(kept.Len()) / float64(other.Len()); frac < 0.7 {
		t.Errorf("sanitizer kept only %.0f%% of normal queries: %s", 100*frac, report)
	}
}

func TestSanitizerDropsToxicQueries(t *testing.T) {
	env, nw, st := setup(t)
	// Hand-build the attacker's preference so the mid segment holds columns
	// the reference workload never rewards — the genuinely toxic case (a
	// small probing budget against an underfit advisor can also produce
	// accidental non-toxic injections, which the sanitizer rightly keeps).
	cols := env.Schema.IndexableColumnNames()
	ranking := append([]string{
		"lineitem.l_shipdate", "lineitem.l_partkey", "lineitem.l_orderkey",
		"lineitem.l_receiptdate",
		"part.p_retailprice", "customer.c_phone", "supplier.s_acctbal",
		"orders.o_clerk", "partsupp.ps_supplycost",
	}, nil...)
	seen := make(map[string]bool)
	for _, c := range ranking {
		seen[c] = true
	}
	k := map[string]float64{}
	for i, c := range ranking {
		k[c] = 1 / float64(i+1)
	}
	for _, c := range cols {
		if !seen[c] {
			ranking = append(ranking, c)
		}
	}
	pref := &pipa.Preference{Ranking: ranking, K: k}
	tw := st.InjectN(context.Background(), pref, st.Cfg.Na)
	if tw.Len() == 0 {
		t.Skip("no toxic queries generated at this scale")
	}
	san := NewSanitizer(env.WhatIf, nw)
	kept, report := san.Screen(tw)
	if frac := float64(kept.Len()) / float64(tw.Len()); frac > 0.5 {
		t.Errorf("sanitizer kept %.0f%% of toxic queries: %s", 100*frac, report)
	}
	if report.Dropped == 0 {
		t.Error("no toxic queries flagged")
	}
}

func TestSanitizerAlwaysKeepsReferenceQueries(t *testing.T) {
	env, nw, _ := setup(t)
	san := NewSanitizer(env.WhatIf, nw)
	kept, report := san.Screen(nw)
	if kept.Len() != nw.Len() || report.Dropped != 0 {
		t.Errorf("reference queries dropped: %s", report)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{Kept: 3, Dropped: 2, Reasons: map[string]string{
		"q1": "sharp-benefit", "q2": "unsupported-column",
	}}
	s := rep.String()
	for _, want := range []string{"kept 3", "dropped 2", "sharp-benefit", "unsupported-column"} {
		if !contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSanitizerEmptyWorkloads pins the degenerate inputs a retraining
// pipeline can hand the sanitizer: an empty reference (nothing is trusted
// yet) and an empty incoming batch must both screen without panicking, and
// every incoming query must be accounted for as kept or dropped.
func TestSanitizerEmptyWorkloads(t *testing.T) {
	env, nw, _ := setup(t)

	empty := &workload.Workload{}
	san := NewSanitizer(env.WhatIf, empty)
	kept, report := san.Screen(empty)
	if kept.Len() != 0 || report.Kept != 0 || report.Dropped != 0 {
		t.Errorf("empty vs empty: kept=%d report=%s", kept.Len(), report)
	}

	// Normal queries against an empty reference: nothing is trusted, so any
	// indexable query must be flagged, and the ledger must balance.
	kept, report = san.Screen(nw)
	if report.Kept+report.Dropped != nw.Len() {
		t.Errorf("ledger: kept %d + dropped %d != incoming %d", report.Kept, report.Dropped, nw.Len())
	}
	for _, q := range kept.Queries {
		if opt, _, ok := qgen.OptimalSingleColumn(env.WhatIf, q); ok {
			t.Errorf("indexable query kept against empty reference (optimal %s): %s", opt, q)
		}
	}

	// An empty incoming batch against a real reference.
	san = NewSanitizer(env.WhatIf, nw)
	kept, report = san.Screen(empty)
	if kept.Len() != 0 || report.Dropped != 0 {
		t.Errorf("real vs empty: kept=%d report=%s", kept.Len(), report)
	}
}

// TestSanitizerSingleQueryWorkload: a one-query reference is the smallest
// trusted set a DBA can vet; it must round-trip through Screen unchanged and
// still screen other queries.
func TestSanitizerSingleQueryWorkload(t *testing.T) {
	env, nw, _ := setup(t)
	single := &workload.Workload{}
	single.Add(nw.Queries[0], nw.Freqs[0])

	san := NewSanitizer(env.WhatIf, single)
	kept, report := san.Screen(single)
	if kept.Len() != 1 || report.Dropped != 0 {
		t.Errorf("single-query reference dropped its own query: %s", report)
	}

	// The rest of the normal workload against the one-query reference: no
	// panics, and the ledger balances.
	rest := &workload.Workload{}
	for i := 1; i < nw.Len(); i++ {
		rest.Add(nw.Queries[i], nw.Freqs[i])
	}
	_, report = san.Screen(rest)
	if report.Kept+report.Dropped != rest.Len() {
		t.Errorf("ledger: kept %d + dropped %d != incoming %d", report.Kept, report.Dropped, rest.Len())
	}
}

func TestScreenCleanReportsFalsePositives(t *testing.T) {
	env, nw, _ := setup(t)
	san := NewSanitizer(env.WhatIf, nw)
	other := workload.GenerateNormal(env.Schema, workload.TPCHTemplates(), 14, rand.New(rand.NewSource(31)))

	// ScreenCleanWith must agree with Screen on the verdicts and add exactly the
	// dropped count — the sanitizer's false positives on vouched-clean
	// traffic — to the process-wide counter.
	_, want := san.Screen(other)
	before := obs.GetCounter("defense_clean_dropped_total").Value()
	report := ScreenCleanWith(san, other)
	after := obs.GetCounter("defense_clean_dropped_total").Value()

	if report.Kept != want.Kept || report.Dropped != want.Dropped {
		t.Errorf("ScreenCleanWith report (kept %d, dropped %d) disagrees with Screen (kept %d, dropped %d)",
			report.Kept, report.Dropped, want.Kept, want.Dropped)
	}
	if got := after - before; got != int64(report.Dropped) {
		t.Errorf("defense_clean_dropped_total rose by %d, want %d", got, report.Dropped)
	}

	// The reference workload itself is clean by definition: zero drops, and
	// the counter must not move.
	before = obs.GetCounter("defense_clean_dropped_total").Value()
	if rep := ScreenCleanWith(san, nw); rep.Dropped != 0 {
		t.Errorf("reference workload flagged as dirty: %s", rep)
	}
	if after = obs.GetCounter("defense_clean_dropped_total").Value(); after != before {
		t.Errorf("counter moved on a zero-drop screen: %d -> %d", before, after)
	}
}

// namedScreener drops queries whose text contains its needle, tagging
// reasons either bare or already prefixed — the two shapes Chain must merge.
type namedScreener struct {
	name     string
	needle   string
	prefixed bool
}

func (n *namedScreener) Name() string { return n.name }

func (n *namedScreener) Screen(w *workload.Workload) (*workload.Workload, *Report) {
	rep := &Report{Strategy: n.name, Reasons: map[string]string{}}
	kept := &workload.Workload{}
	for i, q := range w.Queries {
		if s := q.String(); strings.Contains(s, n.needle) {
			rep.Dropped++
			why := "match"
			if n.prefixed {
				why = n.name + ":match"
			}
			rep.Reasons[s] = why
			continue
		}
		kept.Add(q, w.Freqs[i])
		rep.Kept++
	}
	return kept, rep
}

func chainWorkload(t *testing.T, texts ...string) *workload.Workload {
	t.Helper()
	w := &workload.Workload{}
	for _, text := range texts {
		q, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		w.Add(q, 1)
	}
	return w
}

func TestChainScreensInOrderAndPrefixesReasons(t *testing.T) {
	a := &namedScreener{name: "alpha", needle: "l_tax"}
	b := &namedScreener{name: "beta", needle: "l_quantity", prefixed: true}
	ch := NewChain(a, b)
	if ch.Name() != "alpha+beta" {
		t.Fatalf("Name = %q", ch.Name())
	}

	w := chainWorkload(t,
		"SELECT COUNT(*) FROM lineitem WHERE lineitem.l_tax > 1",
		"SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 2",
		"SELECT COUNT(*) FROM lineitem WHERE lineitem.l_shipdate > 3",
	)
	kept, rep := ch.Screen(w)
	if kept.Len() != 1 || rep.Kept != 1 || rep.Dropped != 2 {
		t.Fatalf("kept %d, report %s", kept.Len(), rep)
	}
	if rep.Strategy != "alpha+beta" {
		t.Fatalf("Strategy = %q", rep.Strategy)
	}
	// Bare reasons gain the sub-screener prefix; already-prefixed ones don't
	// get doubled.
	byNeedle := map[string]string{}
	for q, why := range rep.Reasons {
		switch {
		case strings.Contains(q, "l_tax"):
			byNeedle["alpha"] = why
		case strings.Contains(q, "l_quantity"):
			byNeedle["beta"] = why
		}
	}
	if byNeedle["alpha"] != "alpha:match" {
		t.Errorf("alpha reason = %q, want alpha:match", byNeedle["alpha"])
	}
	if byNeedle["beta"] != "beta:match" {
		t.Errorf("beta reason = %q, want beta:match (no double prefix)", byNeedle["beta"])
	}
}

func TestChainEmptyAndScreenClean(t *testing.T) {
	ch := NewChain(&namedScreener{name: "alpha", needle: "l_tax"})
	kept, rep := ch.Screen(&workload.Workload{})
	if kept.Len() != 0 || rep.Dropped != 0 {
		t.Fatalf("empty: kept %d %s", kept.Len(), rep)
	}

	// ScreenCleanWith counts chain drops on the clean-FP counter.
	before := obs.GetCounter("defense_clean_dropped_total").Value()
	rep = ScreenCleanWith(ch, chainWorkload(t, "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_tax > 1"))
	if rep.Dropped != 1 {
		t.Fatalf("clean screen dropped %d, want 1", rep.Dropped)
	}
	if got := obs.GetCounter("defense_clean_dropped_total").Value(); got != before+1 {
		t.Fatalf("counter rose by %d, want 1", got-before)
	}
}

func TestReportStrategyString(t *testing.T) {
	rep := &Report{Strategy: "trim", Kept: 4, Dropped: 1, Reasons: map[string]string{"q": "trim:high-loss iter=2"}}
	s := rep.String()
	if !contains(s, "trim: kept 4") {
		t.Errorf("report %q missing strategy header", s)
	}
	// Deterministic: identical reports render identically.
	if again := rep.String(); again != s {
		t.Errorf("String not deterministic: %q vs %q", s, again)
	}
	// No strategy falls back to the generic header.
	bare := &Report{Kept: 1}
	if !contains(bare.String(), "screen: kept 1") {
		t.Errorf("bare report %q missing generic header", bare.String())
	}
}
