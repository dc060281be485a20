package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/par"
	"repro/internal/pipa"
)

// MainCell is one (advisor, injector) box of Fig. 7: the AD sample across
// runs.
type MainCell struct {
	Advisor  string
	Injector string
	ADs      []float64
	Stats    Stats
}

// MainResult is the Fig. 7 + Table 1 data for one benchmark instance.
type MainResult struct {
	Setup    string
	Cells    []MainCell
	RD       map[string]float64 // Table 1: mean RD per advisor (PIPA vs FSM)
	Advisors []string
}

// RunMainResult reproduces the main experiment (§6.2): for every advisor and
// every injector, train on a fresh normal workload, poison, retrain, and
// measure AD; RD compares PIPA against the random FSM injection run-by-run
// (Def. 2.5).
//
// The (run, advisor) cells are independent — each derives its RNGs from
// (Seed, run) and owns its advisor instances — so they fan out through the
// setup's worker pool; the injector loop inside a cell stays serial because
// every injector stress-tests a clone of the same base advisor. Results are
// assembled run-major afterwards, byte-identical to the serial order.
//
// Cancelling ctx stops the grid at the next cell boundary; cells completed
// before the cancel land in the setup's checkpoint journal (when one is
// configured), so a restarted run skips them byte-identically.
func RunMainResult(ctx context.Context, s *Setup, advisors []string) (*MainResult, error) {
	st := s.Tester()
	injectors := pipa.PaperInjectors(st)
	res := &MainResult{Setup: s.Name, RD: make(map[string]float64), Advisors: advisors}

	cells := make(map[string]*MainCell)
	for _, a := range advisors {
		for _, inj := range injectors {
			cells[a+"|"+inj.Name()] = &MainCell{Advisor: a, Injector: inj.Name()}
		}
	}

	// One task per (run, advisor): train the base advisor once, then
	// stress-test a fresh clone against each injector. The StressTester is
	// stateless (all randomness derives from Cfg.Seed), so tasks share it.
	nAdv := len(advisors)
	rows, err := par.MapCtx(ctx, s.pool("mainresult"), s.Runs*nAdv, func(ctx context.Context, i int) ([]float64, error) {
		run, name := i/nAdv, advisors[i%nAdv]
		return journaled(s, fmt.Sprintf("mainresult/%s/%d", name, run), func() ([]float64, error) {
			w := s.NormalWorkload(run)
			base, err := s.trainAdvisor(ctx, name, run, w)
			if err != nil {
				return nil, err
			}
			ads := make([]float64, len(injectors))
			for k, inj := range injectors {
				victim, err := s.cloneOrRetrain(base, name, run, w)
				if err != nil {
					return nil, err
				}
				ads[k] = st.StressTest(ctx, victim, inj, w, s.PipaCfg.Na).AD
			}
			// A cancelled cell is truncated, not complete: fail it so it is
			// never journaled or folded into the result.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return ads, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for run := 0; run < s.Runs; run++ {
		for ai, name := range advisors {
			for k, inj := range injectors {
				cell := cells[name+"|"+inj.Name()]
				cell.ADs = append(cell.ADs, rows[run*nAdv+ai][k])
			}
		}
	}

	for _, a := range advisors {
		for _, inj := range injectors {
			cell := cells[a+"|"+inj.Name()]
			cell.Stats = NewStats(cell.ADs)
			res.Cells = append(res.Cells, *cell)
		}
		// Table 1: RD = mean over runs of AD(PIPA) - AD(FSM).
		pipaCell, fsmCell := cells[a+"|PIPA"], cells[a+"|FSM"]
		rd := 0.0
		for i := range pipaCell.ADs {
			rd += pipaCell.ADs[i] - fsmCell.ADs[i]
		}
		res.RD[a] = rd / float64(len(pipaCell.ADs))
	}
	return res, nil
}

// Cell returns the named cell, or nil.
func (r *MainResult) Cell(advisor, injector string) *MainCell {
	for i := range r.Cells {
		if r.Cells[i].Advisor == advisor && r.Cells[i].Injector == injector {
			return &r.Cells[i]
		}
	}
	return nil
}

// String renders the Fig. 7 boxes and Table 1 rows as text.
func (r *MainResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 7 (AD distribution) — %s ==\n", r.Setup)
	fmt.Fprintf(&b, "%-14s %-5s %8s %8s %8s %8s %8s\n", "advisor", "inj", "mean", "min", "median", "max", "std")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-14s %-5s %+8.3f %+8.3f %+8.3f %+8.3f %8.3f\n",
			c.Advisor, c.Injector, c.Stats.Mean, c.Stats.Min, c.Stats.Median, c.Stats.Max, c.Stats.Std)
	}
	fmt.Fprintf(&b, "\n== Table 1 (RD per advisor) — %s ==\n", r.Setup)
	for _, a := range r.Advisors {
		fmt.Fprintf(&b, "%-14s RD = %+.3f\n", a, r.RD[a])
	}
	return b.String()
}
