//go:build !race

// Allocation guard for DQN inference. testing.AllocsPerRun under the race
// detector counts instrumentation allocations, so this file is excluded
// from -race runs (the CI test job); the bench job runs it unraced.
package dqn

import "testing"

// TestInferenceStepAllocFree pins one greedy inference step — the state
// vector, the Q-network's forward pass and the masked argmax — at zero
// allocations once the call's buffers exist.
func TestInferenceStepAllocFree(t *testing.T) {
	env, w := setup(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			d := k.new(env, fastCfg())
			mask := d.filter(w)
			sc := d.newInference(d.features(w))
			ep := env.Start(w, d.cfg.Budget).Restart()
			ep.Step(d.chooseAction(sc.stateOf(ep), ep, mask, 0, sc)) // warm up and leave a chosen column

			if got := testing.AllocsPerRun(200, func() {
				d.chooseAction(sc.stateOf(ep), ep, mask, 0, sc)
			}); got != 0 {
				t.Errorf("inference step allocates %.1f/op, want 0", got)
			}
		})
	}
}
