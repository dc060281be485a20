package trim

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/defense"
	"repro/internal/qgen"
	"repro/internal/workload"
)

// stubAdvisor realizes TRIM's operating premise in its purest form: it serves
// exactly what it is trained on, building each trained query's optimal
// single-column index, keeping the budget highest-benefit columns. Training
// replaces state, so a fit on a clean subset serves clean queries and nothing
// else — the regime where per-query loss is real evidence.
type stubAdvisor struct {
	whatIf *cost.WhatIf
	budget int
	cols   []string
}

func (a *stubAdvisor) Name() string     { return "stub" }
func (a *stubAdvisor) TrialBased() bool { return false }

func (a *stubAdvisor) Train(w *workload.Workload) { a.Retrain(w) }

func (a *stubAdvisor) Retrain(w *workload.Workload) {
	benefit := map[string]float64{}
	for i, q := range w.Queries {
		if col, red, ok := qgen.OptimalSingleColumn(a.whatIf, q); ok {
			benefit[col] += red * w.Freqs[i]
		}
	}
	cols := make([]string, 0, len(benefit))
	for c := range benefit {
		cols = append(cols, c)
	}
	sort.Slice(cols, func(i, j int) bool {
		if benefit[cols[i]] != benefit[cols[j]] {
			return benefit[cols[i]] > benefit[cols[j]]
		}
		return cols[i] < cols[j]
	})
	if len(cols) > a.budget {
		cols = cols[:a.budget]
	}
	sort.Strings(cols)
	a.cols = cols
}

func (a *stubAdvisor) Recommend(*workload.Workload) []cost.Index {
	idx := make([]cost.Index, len(a.cols))
	for i, c := range a.cols {
		idx[i] = cost.NewIndex(c)
	}
	return idx
}

func (a *stubAdvisor) Snapshot() ([]byte, error) { return []byte(strings.Join(a.cols, "\n")), nil }

func (a *stubAdvisor) Restore(b []byte) error {
	if len(b) == 0 {
		a.cols = nil
	} else {
		a.cols = strings.Split(string(b), "\n")
	}
	return nil
}

// TestTrimDetectsPoisonWhenPremiseHolds pins the detection regime: an
// estimator that can serve the whole clean workload within budget but not the
// injection. Every variant must drop most of the toxic queries and none of
// the clean ones; ε is set at the contamination rate, TRIM's usual
// requirement.
func TestTrimDetectsPoisonWhenPremiseHolds(t *testing.T) {
	env, nw, st := setup(t)
	tw := toxicInjection(t, env, st)
	// TRIM identifies poison only when ε covers the contamination rate; trim
	// the injection so ⌊ε·n⌋ bounds it.
	for tw.Len() > 8 {
		short := &workload.Workload{}
		for i := 0; i < 8; i++ {
			short.Add(tw.Queries[i], tw.Freqs[i])
		}
		tw = short
	}

	// Amplify the trusted workload's frequencies so clean columns dominate
	// the benefit ranking, and give the stub exactly enough budget for them:
	// clean fits serve clean, and nothing can serve the injection's columns.
	clean := &workload.Workload{}
	cleanCols := map[string]bool{}
	for i, q := range nw.Queries {
		clean.Add(q, nw.Freqs[i]*10)
		if col, _, ok := qgen.OptimalSingleColumn(env.WhatIf, q); ok {
			cleanCols[col] = true
		}
	}
	batch := clean.Merge(tw)
	stub := &stubAdvisor{whatIf: env.WhatIf, budget: len(cleanCols)}
	stub.Train(clean)

	cleanTexts := map[string]bool{}
	for _, q := range clean.Queries {
		cleanTexts[q.String()] = true
	}

	for _, v := range []Variant{TRIM, ATRIM, IRL} {
		scr := New(stub, env.WhatIf, Config{Variant: v, Epsilon: 0.45, Seed: 7, Reference: clean})
		kept, rep := scr.Screen(batch)
		toxicDropped := 0
		for q := range rep.Reasons {
			if cleanTexts[q] {
				t.Errorf("%s dropped a clean query: %s", v, q)
			} else {
				toxicDropped++
			}
		}
		if toxicDropped < tw.Len()/2 {
			t.Errorf("%s dropped %d of %d toxic queries, want at least half: %s", v, toxicDropped, tw.Len(), rep)
		}
		if kept.Len()+rep.Dropped != batch.Len() {
			t.Errorf("%s: ledger mismatch: %d + %d != %d", v, kept.Len(), rep.Dropped, batch.Len())
		}
	}
}

// TestTrimStubCleanNoDrops: the same premise-holding estimator must keep a
// pure-clean batch intact at every ε.
func TestTrimStubCleanNoDrops(t *testing.T) {
	env, nw, _ := setup(t)
	clean := &workload.Workload{}
	cleanCols := map[string]bool{}
	for i, q := range nw.Queries {
		clean.Add(q, nw.Freqs[i]*10)
		if col, _, ok := qgen.OptimalSingleColumn(env.WhatIf, q); ok {
			cleanCols[col] = true
		}
	}
	stub := &stubAdvisor{whatIf: env.WhatIf, budget: len(cleanCols)}
	stub.Train(clean)

	for _, v := range []Variant{TRIM, ATRIM, IRL} {
		for _, eps := range []float64{0.1, 0.3, 0.45} {
			scr := New(stub, env.WhatIf, Config{Variant: v, Epsilon: eps, Seed: 7, Reference: clean})
			if rep := defense.ScreenCleanWith(scr, clean); rep.Dropped != 0 {
				t.Errorf("%s eps=%.2f dropped %d clean queries: %s", v, eps, rep.Dropped, rep)
			}
		}
	}
}
