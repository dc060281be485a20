package pipa

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// scriptedOracle replays a fixed verdict sequence, so ADAPT's feedback loop
// mutates through every branch (blunter, in-distribution, diluted) without a
// guarded victim behind it. The first query of each batch is dropped.
type scriptedOracle struct{ calls int }

func (o *scriptedOracle) TryUpdate(w *workload.Workload) Verdict {
	script := []struct{ outcome, why string }{
		{"rolled-back", "sharp-benefit"},
		{"committed", "unsupported-column"},
		{"screened", "high-loss"},
		{"committed", ""},
	}
	s := script[o.calls%len(script)]
	o.calls++
	v := Verdict{Outcome: s.outcome, Dropped: map[string]string{}}
	if s.why != "" && w.Len() > 0 {
		v.Dropped[w.Queries[0].String()] = s.why
	}
	return v
}

// iabartCalls counts IABART generations so far: each ends accepted or failed.
func iabartCalls() int64 {
	return obs.GetCounter("qgen_generate_accepted_total").Value() + obs.GetCounter("qgen_generate_failures_total").Value()
}

// injectionDigest hashes an injection's query texts and frequencies in order.
func injectionDigest(w *workload.Workload) string {
	h := sha256.New()
	for i, q := range w.Queries {
		fmt.Fprintf(h, "%s\t%g\n", q.String(), w.Freqs[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInjectionsPinned pins every injector's output at a fixed seed against a
// freshly trained Heuristic victim, together with the change each build makes
// to the PIPA injection counters and the number of IABART generations it
// asks for. A refactor of the generation loops must
// leave the RNG draw order, the attempt budgets and the filters alone, so
// these values may only change with a deliberate change to an attack. They
// were recorded on amd64, as TestSnapshotFormatPinned's digests are.
func TestInjectionsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	type pin struct {
		digest                          string
		attempts, accepted, generations int64
	}
	want := map[string]pin{
		"TP":                     {"1637913e5b4e206ff1253ea296915ac19e9969eb745370ba800262e7f9345aab", 0, 0, 0},
		"FSM":                    {"cd180f2d622281c43e90a59278c9665e48e6a96dc8a17f650add8bd37277a921", 0, 0, 0},
		"I-R":                    {"a124aa23251252ae47021ec1f4ee19642247d678e37bf57c73047287f3ee19fc", 0, 0, 24},
		"I-L":                    {"62b3dc226d7bebf9e4dbf518a1bcb75d8365040b0371d82e562d201a3f7db44d", 0, 0, 65},
		"P-C":                    {"df7c77c153741268ff29897d77152e122b9bc2b65fe14bed3a8399569fdeb1d1", 8, 8, 40},
		"PIPA":                   {"df7c77c153741268ff29897d77152e122b9bc2b65fe14bed3a8399569fdeb1d1", 8, 8, 40},
		"BAD":                    {"b8249416a77cb2ca7c50269b4ece7abecc8ae6fe6013f336170835ab46ded225", 0, 0, 32},
		"SUB":                    {"9e8fbaca35792ed7f4e939cfaa04a9db8f2ada0613dde6deeb06269b8a0aff1c", 0, 0, 49},
		"BAD+SUB":                {"18bd32bc31c209ec3e700d7caa79dc7116dcda6c0fa979ed877c8359f2067feb", 0, 0, 45},
		"R-OOD":                  {"d838a49662a326ca655d341413ef1b585a3520159ee85f1fa5039a281d8d4428", 0, 0, 18},
		"N-OOD":                  {"82a2a456310ba0d0566976ef21b786b9a268c42336d9de95592bfaa7d69c5f94", 0, 0, 14},
		"ADAPT":                  {"df7c77c153741268ff29897d77152e122b9bc2b65fe14bed3a8399569fdeb1d1", 8, 8, 40},
		"ADAPT+oracle":           {"de30218fff17a625372fa00716afd596c08013bdcf89bded9b2e7f86938ab8a1", 0, 0, 69},
		"strained/TP":            {"1637913e5b4e206ff1253ea296915ac19e9969eb745370ba800262e7f9345aab", 0, 0, 0},
		"strained/FSM":           {"cd180f2d622281c43e90a59278c9665e48e6a96dc8a17f650add8bd37277a921", 0, 0, 0},
		"strained/I-R":           {"489c65e57b8441ef414a506870091e1195a53c360794f9c45998509d3537b054", 0, 0, 19},
		"strained/I-L":           {"5566fa44cb74f54aef7e3ead7d73bb08bcff10179d72fed993ccc64ab99ef665", 0, 0, 128},
		"strained/P-C":           {"7d5a6ecc75c65fe97d3d36dacfb5d03fccdbbc92609852c19bbb4beb70b7f3b7", 14, 8, 62},
		"strained/PIPA":          {"7d5a6ecc75c65fe97d3d36dacfb5d03fccdbbc92609852c19bbb4beb70b7f3b7", 14, 8, 62},
		"strained/BAD":           {"b8249416a77cb2ca7c50269b4ece7abecc8ae6fe6013f336170835ab46ded225", 0, 0, 48},
		"strained/SUB":           {"039bf0ee26b8bd9abc6dd43999bc4de49157e890d04ad33688c0bdbe146760e3", 0, 0, 74},
		"strained/BAD+SUB":       {"9cce9c4d0e2447600a050cb0ce466c22be4b5a7b9af8bfea3a9f60ef75ff8f0f", 0, 0, 82},
		"strained/R-OOD":         {"83f3f9d3737538a7010579d93a7abd8fb2ac59e749d01cb166a6489fc9777c03", 0, 0, 69},
		"strained/N-OOD":         {"36b5c30a8364cc0499c95523c2ad106bfa43935d4eb779ea3771542f3fbab1ab", 0, 0, 11},
		"strained/ADAPT":         {"7d5a6ecc75c65fe97d3d36dacfb5d03fccdbbc92609852c19bbb4beb70b7f3b7", 14, 8, 62},
		"strained/ADAPT+oracle":  {"ba16af3da2d5ca4afdc5232a836d14cb0c38af5b37a23ed5a6c9e2217a54ace0", 0, 0, 81},
		"exhausted/TP":           {"1637913e5b4e206ff1253ea296915ac19e9969eb745370ba800262e7f9345aab", 0, 0, 0},
		"exhausted/FSM":          {"cd180f2d622281c43e90a59278c9665e48e6a96dc8a17f650add8bd37277a921", 0, 0, 0},
		"exhausted/I-R":          {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 80},
		"exhausted/I-L":          {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 88},
		"exhausted/P-C":          {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 128, 0, 136},
		"exhausted/PIPA":         {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 128, 0, 136},
		"exhausted/BAD":          {"b8249416a77cb2ca7c50269b4ece7abecc8ae6fe6013f336170835ab46ded225", 0, 0, 8},
		"exhausted/SUB":          {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 168},
		"exhausted/BAD+SUB":      {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 168},
		"exhausted/R-OOD":        {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 160},
		"exhausted/N-OOD":        {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 160},
		"exhausted/ADAPT":        {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 128, 0, 136},
		"exhausted/ADAPT+oracle": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 328},
		"InjectN/shuffle-20":     {"f644bb5c0ad6335797a908cc9e2d17e76e441696ed8230cfaf71cd716c8e96a0", 104, 2, 104},
		"InjectN/shuffle-25":     {"d463ac2a3b4500babdcd57d066452d153141a850b7c0eadaacb2292e7ea9ded8", 101, 4, 101},
	}
	const size = 8
	st, env, nw := fastTester(t)
	type build struct {
		name string
		run  func() *workload.Workload
	}
	var builds []build
	against := func(name string, inj Injector) {
		builds = append(builds, build{name, func() *workload.Workload {
			ia := fastAdvisor(t, env, "Heuristic")
			ia.Train(nw)
			return inj.BuildInjection(context.Background(), ia, size)
		}})
	}
	// Two weakened copies of the tester. The strained one asks for blunt
	// queries (reward target 0.05) and its IABART verifies one candidate per
	// call, so many generations fail. The exhausted one's IABART verifies
	// none: every generation fails and each loop spends its whole attempt
	// budget.
	testers := map[string]*StressTester{"": st}
	for prefix, maxAttempts := range map[string]int{"strained/": 1, "exhausted/": 0} {
		gen := *st.Gen
		gen.Opts.MaxAttempts = maxAttempts
		cfg := st.Cfg
		if maxAttempts == 1 {
			cfg.RewardTarget = 0.05
		}
		testers[prefix] = &StressTester{Schema: st.Schema, WhatIf: st.WhatIf, Gen: &gen, Cfg: cfg}
	}
	for _, prefix := range []string{"", "strained/", "exhausted/"} {
		for _, inj := range Injectors(testers[prefix]) {
			against(prefix+inj.Name(), inj)
		}
		against(prefix+"ADAPT+oracle", AdaptInjector{Tester: testers[prefix], Oracle: &scriptedOracle{}})
	}
	// Two shuffled rankings whose mid pools IABART fails on often enough to
	// exhaust InjectN's main budget and reach its last-resort loop.
	for _, seed := range []int64{20, 25} {
		pref := shuffledPreference(st, seed)
		builds = append(builds, build{fmt.Sprintf("InjectN/shuffle-%d", seed), func() *workload.Workload {
			return st.InjectN(context.Background(), pref, size)
		}})
	}
	if len(builds) != len(want) {
		t.Fatalf("%d builds for %d pins", len(builds), len(want))
	}
	for _, b := range builds {
		attempts, accepted, generations := injectAttempts.Value(), injectAccepted.Value(), iabartCalls()
		tw := b.run()
		got := pin{injectionDigest(tw), injectAttempts.Value() - attempts, injectAccepted.Value() - accepted, iabartCalls() - generations}
		if got != want[b.name] {
			t.Errorf("%s: got {%q, %d, %d, %d}, want %+v", b.name, got.digest, got.attempts, got.accepted, got.generations, want[b.name])
		}
	}
}

// shuffledPreference ranks the schema's indexable columns in a seeded random
// order; odd seeds leave all but the first twelve unobserved (K = 0).
func shuffledPreference(st *StressTester, seed int64) *Preference {
	rk := append([]string(nil), st.Schema.IndexableColumnNames()...)
	rand.New(rand.NewSource(seed)).Shuffle(len(rk), func(i, j int) { rk[i], rk[j] = rk[j], rk[i] })
	k := map[string]float64{}
	for i, c := range rk {
		if i < 12 || seed%2 == 0 {
			k[c] = float64(len(rk) - i)
		}
	}
	return &Preference{Ranking: rk, K: k}
}
