// Package heuristic implements an AutoAdmin-style greedy what-if index
// advisor. It has no trainable state, so its Absolute performance
// Degradation under any injection is identically zero (paper §2.1: "For
// heuristic IAs, the AD score is always zero") — it serves as the control in
// experiments and as the index labeler for the query generator's training
// data construction.
package heuristic

import (
	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/workload"
)

// Heuristic is the greedy what-if advisor.
type Heuristic struct {
	env       *advisor.Env
	budget    int
	wideCands bool // also consider two-column candidate indexes

	restore advisor.Rewinder // the last restored blob
}

// New creates the advisor. wideCands additionally enumerates two-column
// candidates built from co-occurring sargable columns.
func New(env *advisor.Env, budget int, wideCands bool) *Heuristic {
	return &Heuristic{env: env, budget: budget, wideCands: wideCands}
}

// Name implements advisor.Advisor.
func (h *Heuristic) Name() string { return "Heuristic" }

// TrialBased implements advisor.Advisor.
func (h *Heuristic) TrialBased() bool { return false }

// Train is a no-op: the heuristic has no parameters.
func (h *Heuristic) Train(*workload.Workload) {}

// Retrain is a no-op.
func (h *Heuristic) Retrain(*workload.Workload) {}

// CloneAdvisor implements advisor.Cloner: the heuristic has no trained
// state, so the clone is a fresh instance. It is not the receiver itself
// because Restore remembers the blob it decoded last.
func (h *Heuristic) CloneAdvisor() advisor.Advisor { return New(h.env, h.budget, h.wideCands) }

// Recommend greedily adds the candidate index with the largest marginal
// what-if cost reduction until the budget is exhausted or no candidate
// improves the workload.
//
// Candidate evaluation runs through a delta-aware costing session:
// consecutive candidate sets differ by swapping one trial index, so each
// evaluation re-costs only the queries touching the two swapped indexes'
// columns instead of sweeping the whole workload.
func (h *Heuristic) Recommend(w *workload.Workload) []cost.Index {
	cands := h.candidates(w)
	var chosen []cost.Index
	coster := h.env.WhatIf.NewWorkloadCoster(w.Queries, w.Freqs)
	cur := coster.Cost(nil)
	for len(chosen) < h.budget {
		bestI, bestCost := -1, cur
		for i, cand := range cands {
			if cand.Columns == nil {
				continue // consumed
			}
			c := coster.Cost(append(chosen, cand))
			if c < bestCost {
				bestI, bestCost = i, c
			}
		}
		if bestI < 0 {
			break
		}
		chosen = append(chosen, cands[bestI])
		cands[bestI].Columns = nil
		cur = bestCost
	}
	return chosen
}

// candidates enumerates single-column (and optionally two-column) indexes
// over the workload's sargable columns.
func (h *Heuristic) candidates(w *workload.Workload) []cost.Index {
	var out []cost.Index
	cols := w.Columns()
	for _, c := range cols {
		out = append(out, cost.NewIndex(c))
	}
	if h.wideCands {
		// Two-column candidates from sargable columns co-occurring on the
		// same table within a query.
		seen := make(map[string]bool)
		for _, q := range w.Queries {
			sarg := q.SargableColumns()
			for _, a := range sarg {
				for _, b := range sarg {
					if a == b {
						continue
					}
					if tableOf(a) != tableOf(b) {
						continue
					}
					ix := cost.NewIndex(a, b)
					if !seen[ix.Key()] {
						seen[ix.Key()] = true
						out = append(out, ix)
					}
				}
			}
		}
	}
	return out
}

func tableOf(qualified string) string {
	for i := 0; i < len(qualified); i++ {
		if qualified[i] == '.' {
			return qualified[:i]
		}
	}
	return qualified
}
