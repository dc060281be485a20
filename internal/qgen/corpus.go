package qgen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/cost"
	"repro/internal/sql"
)

// Labeler maps a query to a recommended index configuration. The paper
// labels IABART's training corpus with SWIRL (§3.1, chosen for its on-the-fly
// adaptability); the default here is the greedy what-if labeler, which plays
// the same role at a fraction of the cost — any advisor can be plugged in.
type Labeler func(q *sql.Query) []cost.Index

// GreedyLabeler returns a labeler that picks up to budget single-column
// indexes by greedy what-if reduction.
func GreedyLabeler(w *cost.WhatIf, budget int) Labeler {
	return func(q *sql.Query) []cost.Index {
		var chosen []cost.Index
		cur := w.QueryCost(q, nil)
		cands := q.SargableColumns()
		used := make(map[string]bool, len(cands))
		for len(chosen) < budget {
			bestCol, bestCost := "", cur
			for _, c := range cands {
				if used[c] {
					continue
				}
				cc := w.QueryCost(q, append(chosen, cost.NewIndex(c)))
				if cc < bestCost {
					bestCol, bestCost = c, cc
				}
			}
			if bestCol == "" {
				break
			}
			used[bestCol] = true
			chosen = append(chosen, cost.NewIndex(bestCol))
			cur = bestCost
		}
		return chosen
	}
}

// Sample is one training sequence of the §3.1 corpus: a query, its labeled
// index configuration, and the discretized indexing performance, serialized
// to the sub-token sequence "<CLS> q <SEP> I <SEP> R".
type Sample struct {
	Query   *sql.Query
	Indexes []cost.Index
	Reward  float64 // relative cost reduction, rounded to 2 decimals
	Tokens  []string
}

// Special corpus tokens.
const (
	TokCLS = "<CLS>"
	TokSEP = "<SEP>"
)

// BuildCorpus constructs n training samples: FSM-generated queries labeled
// by the labeler, with estimated rewards computed from what-if costs
// (estimated rather than executed "to speed up the construction and collect
// more training samples", §3.1).
func BuildCorpus(f *FSM, w *cost.WhatIf, label Labeler, n int, rng *rand.Rand) []Sample {
	samples := make([]Sample, 0, n)
	for len(samples) < n {
		q := f.Generate(rng)
		idx := label(q)
		base := w.QueryCost(q, nil)
		reward := 0.0
		if base > 0 && len(idx) > 0 {
			reward = 1 - w.QueryCost(q, idx)/base
		}
		reward = math.Round(reward*100) / 100
		samples = append(samples, Sample{
			Query:   q,
			Indexes: idx,
			Reward:  reward,
			Tokens:  SampleTokens(q, idx, reward),
		})
	}
	return samples
}

// SampleTokens serializes a (query, indexes, reward) triple to sub-tokens.
func SampleTokens(q *sql.Query, idx []cost.Index, reward float64) []string {
	tokens := []string{TokCLS}
	tokens = append(tokens, SubTokens(q.String())...)
	tokens = append(tokens, TokSEP)
	for _, ix := range idx {
		tokens = append(tokens, SubTokens(ix.Key())...)
	}
	tokens = append(tokens, TokSEP, fmt.Sprintf("%.2f", reward))
	return tokens
}

// SubTokens splits SQL text into sub-tokens, segmenting identifiers on '_'
// and '.' boundaries the way the paper's sub-token tokenizer handles
// out-of-distribution words: "customer.c_income" becomes
// ["customer", ".", "c", "_", "income"] (§3.1).
func SubTokens(text string) []string {
	raw, err := sql.Tokenize(text)
	if err != nil {
		// Fall back to whitespace splitting for non-SQL text (used only by
		// the noisy baseline's corrupted outputs).
		return strings.Fields(text)
	}
	var out []string
	for _, t := range raw {
		switch t.Kind {
		case sql.TokIdent:
			out = append(out, splitIdent(t.Text)...)
		case sql.TokNumber:
			// Numeric literals decompose into digit sub-tokens, mirroring a
			// BPE tokenizer's bounded number pieces: token diversity then
			// reflects query structure, not constant entropy.
			for i := 0; i < len(t.Text); i++ {
				out = append(out, string(t.Text[i]))
			}
		default:
			out = append(out, t.Text)
		}
	}
	return out
}

// splitIdent splits an identifier into sub-tokens, keeping separators.
func splitIdent(ident string) []string {
	var out []string
	start := 0
	for i := 0; i < len(ident); i++ {
		if ident[i] == '_' || ident[i] == '.' {
			if i > start {
				out = append(out, ident[start:i])
			}
			out = append(out, string(ident[i]))
			start = i + 1
		}
	}
	if start < len(ident) {
		out = append(out, ident[start:])
	}
	return out
}
