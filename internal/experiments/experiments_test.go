package experiments

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/pipa"
)

// tinySetup is shared across tests; Setup construction trains IABART once.
var tinySetup = NewSetup("tpch", 1, ScaleTiny)

func TestNewSetupScales(t *testing.T) {
	if tinySetup.Name != "TPC-H 1GB" {
		t.Errorf("Name = %q", tinySetup.Name)
	}
	if tinySetup.WorkloadN != 10 || tinySetup.Runs != 2 {
		t.Errorf("tiny scale misconfigured: %+v", tinySetup)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown benchmark should panic")
		}
	}()
	NewSetup("nope", 1, ScaleTiny)
}

func TestStats(t *testing.T) {
	s := NewStats([]float64{3, 1, 2, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Median != 2.5 {
		t.Errorf("Median = %f", s.Median)
	}
	if z := NewStats(nil); z.N != 0 {
		t.Errorf("empty Stats = %+v", z)
	}
}

func TestRunMotivation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	r, err := RunMotivation(context.Background(), tinySetup)
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineRed <= 0 {
		t.Errorf("baseline reduction = %f, want > 0", r.BaselineRed)
	}
	if !strings.Contains(r.String(), "Fig. 1") {
		t.Error("String() missing header")
	}
}

func TestRunMainResultSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	r, err := RunMainResult(context.Background(), tinySetup, []string{"DQN-b", "Heuristic"})
	if err != nil {
		t.Fatal(err)
	}
	// 2 advisors × 6 injectors cells.
	if len(r.Cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(r.Cells))
	}
	// Heuristic is immune: AD identically 0 under every injector (§2.1).
	for _, inj := range []string{"TP", "FSM", "I-R", "I-L", "P-C", "PIPA"} {
		c := r.Cell("Heuristic", inj)
		if c == nil {
			t.Fatalf("missing cell Heuristic/%s", inj)
		}
		if c.Stats.Mean != 0 || c.Stats.Max != 0 {
			t.Errorf("Heuristic AD under %s = %+v, want 0", inj, c.Stats)
		}
	}
	if _, ok := r.RD["DQN-b"]; !ok {
		t.Error("missing RD entry")
	}
	out := r.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Fig. 7") {
		t.Error("String() missing sections")
	}
}

func TestRunGeneratorQuality(t *testing.T) {
	r, err := RunGeneratorQuality(context.Background(), tinySetup, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(r.Rows))
	}
	byName := map[string]GeneratorRow{}
	for _, row := range r.Rows {
		byName[row.Method] = row
	}
	// FSM-constrained rows are perfectly grammatical; noisy rows are not.
	for _, m := range []string{"ST", "DT", "IABART", "IABART w/o Task1", "IABART w/o Task2", "IABART w/o Task1&2"} {
		if byName[m].GAC != 1 {
			t.Errorf("%s GAC = %f, want 1", m, byName[m].GAC)
		}
	}
	if byName["GPT-3.5-sim"].GAC >= 1 {
		t.Errorf("GPT-3.5-sim GAC = %f, want < 1", byName["GPT-3.5-sim"].GAC)
	}
	if byName["IABART"].IAC <= byName["DT"].IAC {
		t.Errorf("IABART IAC %f should beat DT %f", byName["IABART"].IAC, byName["DT"].IAC)
	}
}

func TestRunProbingParamsBetaSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	r, err := RunProbingParams(context.Background(), tinySetup, "DQN-b", []float64{0.1}, []float64{0, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AlphaSweep) != 1 || len(r.BetaSweep) != 2 {
		t.Fatalf("sweep sizes: %d alphas, %d betas", len(r.AlphaSweep), len(r.BetaSweep))
	}
	// Probing an opaque-box advisor is stochastic (its inference trials
	// advance internal state), so even β = 0 carries sampling noise against
	// the reference; bounds only.
	for _, p := range r.BetaSweep {
		if p.ErrorRate < 0 || p.ErrorRate > 1 {
			t.Errorf("beta=%f error = %f out of [0,1]", p.Beta, p.ErrorRate)
		}
		if p.ConvergeEpoch < 1 {
			t.Errorf("beta=%f converge epoch = %f", p.Beta, p.ConvergeEpoch)
		}
	}
}

func TestSegmentError(t *testing.T) {
	a := [3][]string{{"x"}, {"y"}, {"z"}}
	same := segmentError(a, a)
	if same != 0 {
		t.Errorf("identical segments error = %f", same)
	}
	b := [3][]string{{"y"}, {"x"}, {"z"}}
	if got := segmentError(a, b); got <= 0.5 {
		t.Errorf("swapped segments error = %f, want > 0.5", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "[]" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := sparkline([]float64{1, 1, 2, 2, 3, 3, 4, 4})
	if !strings.Contains(got, "1.00") || !strings.Contains(got, "4.00") {
		t.Errorf("sparkline = %q", got)
	}
}

func TestTPCDSPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-benchmark smoke test")
	}
	s := NewSetup("tpcds", 1, ScaleTiny)
	st := s.Tester()
	w := s.NormalWorkload(0)
	ia, err := s.TrainAdvisor("DQN-b", 0, w)
	if err != nil {
		t.Fatal(err)
	}
	res := st.StressTest(context.Background(), ia, pipa.InjectorByName(st, "PIPA"), w, s.PipaCfg.Na)
	if res.BaselineCost <= 0 {
		t.Fatalf("degenerate TPC-DS run: %+v", res)
	}
	if len(res.BaselineIndexes) == 0 {
		t.Error("no baseline recommendation on TPC-DS")
	}
}

// TestADCellLeavesBaseUntouched: adCell stress-tests clones only, so the base
// it returns must seal to the bytes of a twin trained for the same run and
// never attacked. RunMotivation measures its baseline on that base after the
// stress tests, which is exact only if this holds.
func TestADCellLeavesBaseUntouched(t *testing.T) {
	s := tinySetup
	st := s.Tester()
	ctx := context.Background()
	w := s.NormalWorkload(1)
	for _, name := range []string{"DQN-b", "DBAbandit-b"} {
		t.Run(name, func(t *testing.T) {
			base, results, err := s.adCell(ctx, st, name, 1, w, s.PipaCfg.Na,
				pipa.FSMInjector{Tester: st}, pipa.PIPAInjector{Tester: st})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2 {
				t.Fatalf("%d results for 2 injectors", len(results))
			}
			twin, err := s.trainAdvisor(ctx, name, 1, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := base.(advisor.Snapshotter).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.(advisor.Snapshotter).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("the stress tests moved the base: snapshot differs from an untouched twin (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestADCellFanOutMatchesSerial: adCell fans its stress tests out through
// the setup's pool, so the results at width 2 must match the serial ones
// field for field, AD bits and both index lists included. A fault tester's
// cell runs serially at any width, and must match too, fault telemetry
// included.
func TestADCellFanOutMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	ctx := context.Background()
	w := tinySetup.NormalWorkload(1)
	cell := func(workers int, name string, faults bool) ([]pipa.Result, cost.FaultStats) {
		t.Helper()
		s := *tinySetup
		s.Workers = workers
		s.FaultSeed = 3
		st := s.Tester()
		if faults {
			st = s.FaultTester(0.2, 1)
		}
		_, results, err := s.adCell(ctx, st, name, 1, w, s.PipaCfg.Na, pipa.PaperInjectors(st)...)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return results, st.WhatIf.FaultStats()
	}
	for _, tc := range []struct {
		name   string
		faults bool
	}{{"DQN-b", false}, {"DBAbandit-b", false}, {"SWIRL", false}, {"DQN-b", true}} {
		label := tc.name
		if tc.faults {
			label += "/faults"
		}
		t.Run(label, func(t *testing.T) {
			serial, serialFaults := cell(1, tc.name, tc.faults)
			fanned, fannedFaults := cell(2, tc.name, tc.faults)
			if len(fanned) != len(serial) {
				t.Fatalf("%d results at width 2, %d serially", len(fanned), len(serial))
			}
			for i := range serial {
				a, b := serial[i], fanned[i]
				if math.Float64bits(a.AD) != math.Float64bits(b.AD) {
					t.Errorf("%s: AD %v at width 2, %v serially", a.Injector, b.AD, a.AD)
				}
				if !reflect.DeepEqual(a.BaselineIndexes, b.BaselineIndexes) || !reflect.DeepEqual(a.PoisonedIndexes, b.PoisonedIndexes) {
					t.Errorf("%s: indexes %v/%v at width 2, %v/%v serially",
						a.Injector, b.BaselineIndexes, b.PoisonedIndexes, a.BaselineIndexes, a.PoisonedIndexes)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: result %+v at width 2, %+v serially", a.Injector, b, a)
				}
			}
			if serialFaults != fannedFaults {
				t.Errorf("fault stats %+v at width 2, %+v serially", fannedFaults, serialFaults)
			}
		})
	}
}
