package pipa

import (
	"context"

	"repro/internal/advisor"
	"repro/internal/qgen"
	"repro/internal/workload"
)

// Injector produces an injection workload Ŵ for a victim advisor. The six
// implementations are the paper's §6.2 line-up: TP, FSM, I-R, I-L, P-C and
// PIPA itself.
type Injector interface {
	Name() string
	// BuildInjection may interact with the victim (probing) but only
	// through the opaque-box interface — except the clear-box P-C.
	// Cancelling ctx returns the (possibly partial) workload built so far.
	BuildInjection(ctx context.Context, ia advisor.Advisor, size int) *workload.Workload
}

// TPInjector generates queries from the target workload's own benchmark
// templates with uniform-random frequencies — the workload-variant injection
// SWIRL itself trains with [19]. Typically helps rather than harms (negative
// AD), making it an unqualified evaluator.
type TPInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (TPInjector) Name() string { return "TP" }

// BuildInjection implements Injector.
func (j TPInjector) BuildInjection(_ context.Context, _ advisor.Advisor, size int) *workload.Workload {
	rng := j.Tester.rng(10)
	return workload.GenerateNormal(j.Tester.Schema, workload.TemplatesFor(j.Tester.Schema), size, rng)
}

// FSMInjector generates random FSM queries with unit frequency [43] — the
// paper's random-injection reference against which RD is measured.
type FSMInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (FSMInjector) Name() string { return "FSM" }

// BuildInjection implements Injector.
func (j FSMInjector) BuildInjection(_ context.Context, _ advisor.Advisor, size int) *workload.Workload {
	rng := j.Tester.rng(11)
	f := qgen.NewFSM(j.Tester.Schema)
	w := &workload.Workload{}
	for i := 0; i < size; i++ {
		w.Add(f.Generate(rng), 1)
	}
	return w
}

// IRInjector uses IABART with randomly specified columns (I-R): index-aware
// queries without any preference information.
type IRInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (IRInjector) Name() string { return "I-R" }

// BuildInjection implements Injector.
func (j IRInjector) BuildInjection(ctx context.Context, _ advisor.Advisor, size int) *workload.Workload {
	st := j.Tester
	w := &workload.Workload{}
	st.generate(ctx, w, st.Schema.IndexableColumnNames(), st.Cfg.NumCols, st.Cfg.RewardTarget, size, size*10, st.rng(12), nil)
	return w
}

// ILInjector targets the Low-ranked columns (I-L): the bottom 50% of the
// estimated preference. The paper shows candidate-filtering heuristics
// absorb much of its effect (§6.2).
type ILInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (ILInjector) Name() string { return "I-L" }

// BuildInjection implements Injector.
func (j ILInjector) BuildInjection(ctx context.Context, ia advisor.Advisor, size int) *workload.Workload {
	st := j.Tester
	rng := st.rng(13)
	pref := st.Probe(ctx, ia)
	w := &workload.Workload{}
	st.generate(ctx, w, pref.Ranking[len(pref.Ranking)/2:], st.Cfg.NumCols, st.Cfg.RewardTarget, size, size*10, rng, nil)
	return w
}

// PCInjector is the clear-box variant of PIPA (P-C): the column ranking
// comes from the advisor's true parameters via advisor.Introspector instead
// of probing. It serves as the near-optimal reference.
type PCInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (PCInjector) Name() string { return "P-C" }

// BuildInjection implements Injector.
func (j PCInjector) BuildInjection(ctx context.Context, ia advisor.Advisor, size int) *workload.Workload {
	intro, ok := ia.(advisor.Introspector)
	if !ok {
		// No introspection available: fall back to opaque-box PIPA.
		return PIPAInjector{Tester: j.Tester}.BuildInjection(ctx, ia, size)
	}
	prefs := intro.ColumnPreferences()
	cols := j.Tester.Schema.IndexableColumnNames()
	pref := &Preference{K: prefs}
	pref.Ranking = append([]string(nil), cols...)
	sortByScore(pref.Ranking, prefs)
	return j.Tester.InjectN(ctx, pref, size)
}

// PIPAInjector is the full opaque-box PIPA: probe, then inject.
type PIPAInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (PIPAInjector) Name() string { return "PIPA" }

// BuildInjection implements Injector.
func (j PIPAInjector) BuildInjection(ctx context.Context, ia advisor.Advisor, size int) *workload.Workload {
	pref := j.Tester.Probe(ctx, ia)
	return j.Tester.InjectN(ctx, pref, size)
}

// PaperInjectors returns the paper's §6.2 line-up: the five baselines plus
// PIPA. The main-result grids (Fig. 7) run exactly these.
func PaperInjectors(st *StressTester) []Injector {
	return []Injector{
		TPInjector{st}, FSMInjector{st}, IRInjector{st},
		ILInjector{st}, PCInjector{st}, PIPAInjector{st},
	}
}

// Injectors returns the full attack zoo over one stress tester: the paper's
// six (§6.2), the openGauss ablation family (BAD / SUB / BAD+SUB and the
// R-OOD / N-OOD distribution pair, ablation.go), and the ADAPT guard-aware
// attacker (adapt.go; oracle-less here, so it degrades to plain PIPA — the
// attack-zoo experiment wires its verdict oracle per defense arm). This is
// the registry InjectorByName resolves against.
func Injectors(st *StressTester) []Injector {
	return append(PaperInjectors(st),
		BADInjector{st}, SUBInjector{st}, BadSubInjector{st},
		ROODInjector{st}, NOODInjector{st}, AdaptInjector{Tester: st},
	)
}

// InjectorByName resolves a registry member over st by name. It panics on a
// name outside the registry: callers validate user input first.
func InjectorByName(st *StressTester, name string) Injector {
	for _, inj := range Injectors(st) {
		if inj.Name() == name {
			return inj
		}
	}
	panic("pipa: unknown injector " + name)
}

// sortByScore sorts columns by descending score with deterministic ties.
func sortByScore(cols []string, score map[string]float64) {
	// Insertion sort keeps this dependency-free and stable; L <= ~425.
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && score[cols[j]] > score[cols[j-1]]; j-- {
			cols[j], cols[j-1] = cols[j-1], cols[j]
		}
	}
}
