// Package registry constructs the paper's seven advisor variants by name:
// DQN-b, DQN-m, DRLindex-b, DRLindex-m, DBAbandit-b, DBAbandit-m and SWIRL
// (§6.1), plus the heuristic control. DQN and DRLindex are the two kinds of
// the one Q-learning advisor in package dqn; the name is the only thing that
// selects between them. Experiments and CLI tools resolve advisors through
// this package.
package registry

import (
	"fmt"
	"sort"

	"repro/internal/advisor"
	"repro/internal/advisor/bandit"
	"repro/internal/advisor/dqn"
	"repro/internal/advisor/heuristic"
	"repro/internal/advisor/swirl"
)

// PaperAdvisors lists the seven IA variants of the paper's evaluation.
var PaperAdvisors = []string{
	"DQN-b", "DQN-m", "DRLindex-b", "DRLindex-m",
	"DBAbandit-b", "DBAbandit-m", "SWIRL",
}

// bases maps every base advisor name New accepts to whether it takes the
// -b/-m variant suffix. Valid and Names derive from it, so the two can
// never drift apart.
var bases = map[string]bool{
	"DQN": true, "DRLindex": true, "DBAbandit": true,
	"SWIRL": false, "Heuristic": false,
}

// Names returns every advisor name New accepts, sorted lexicographically.
// CLI usage and error text list it verbatim, so the output is deterministic
// run-to-run (map iteration order is not).
func Names() []string {
	out := make([]string, 0, 2*len(bases))
	for base, variants := range bases {
		if variants {
			out = append(out, base+"-b", base+"-m")
		} else {
			out = append(out, base)
		}
	}
	sort.Strings(out)
	return out
}

// New builds the named advisor over the environment. The config's Variant is
// overridden by the name's -b/-m suffix. DBA-bandit converges fast, so its
// trajectory counts are scaled down by the same 400:20 ratio the paper uses.
func New(name string, env *advisor.Env, cfg advisor.Config) (advisor.Advisor, error) {
	base, variant := splitVariant(name)
	cfg.Variant = variant
	switch base {
	case "DQN":
		return dqn.New(env, cfg), nil
	case "DRLindex":
		// DRLindex explores the unfiltered column space; give it more
		// trajectories to converge.
		dcfg := cfg
		dcfg.Trajectories = cfg.Trajectories * 2
		return dqn.NewDRLindex(env, dcfg), nil
	case "DBAbandit":
		bcfg := cfg
		bcfg.Trajectories = max(20, cfg.Trajectories/20)
		bcfg.InferTrajectories = max(5, cfg.InferTrajectories/4)
		bcfg.MeanWindow = max(1, cfg.MeanWindow/2)
		return bandit.New(env, bcfg), nil
	case "SWIRL":
		// PPO is less sample-efficient than Q-learning with replay; give
		// SWIRL proportionally more on-policy trajectories.
		scfg := cfg
		scfg.Trajectories = cfg.Trajectories * 2
		return swirl.New(env, scfg), nil
	case "Heuristic":
		return heuristic.New(env, cfg.Budget, true), nil
	default:
		return nil, fmt.Errorf("registry: unknown advisor %q", name)
	}
}

// Valid reports whether New recognises the advisor name; CLI tools use it to
// reject bad -advisors lists before any training starts.
func Valid(name string) bool {
	base, _ := splitVariant(name)
	_, ok := bases[base]
	return ok
}

func splitVariant(name string) (string, advisor.Variant) {
	if len(name) > 2 && name[len(name)-2] == '-' {
		switch name[len(name)-1] {
		case 'b':
			return name[:len(name)-2], advisor.Best
		case 'm':
			return name[:len(name)-2], advisor.Mean
		}
	}
	return name, advisor.Best
}
