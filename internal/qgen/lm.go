package qgen

import (
	"math/rand"
	"sort"
	"strings"
)

// LM is an n-gram sub-token language model with add-k smoothing — the
// learned sequence model standing in for BART-base (see the package comment
// for the substitution rationale). Progressive training (§3.2) is realized
// as three corpus passes feeding the same counts with increasingly
// generation-shaped contexts: full sequences (Task 1, token correlations),
// index-conditioned sequences (Task 2, query ⟷ index association), and
// query-from-index sequences (Task 3, generation from scratch).
type LM struct {
	n      int
	counts map[string]map[string]float64
	ctxTot map[string]float64
	vocab  map[string]bool
}

// NewLM creates an n-gram model (n >= 2).
func NewLM(n int) *LM {
	if n < 2 {
		n = 2
	}
	return &LM{
		n:      n,
		counts: make(map[string]map[string]float64),
		ctxTot: make(map[string]float64),
		vocab:  make(map[string]bool),
	}
}

// context joins the trailing n-1 tokens.
func (m *LM) context(prev []string) string {
	k := m.n - 1
	if len(prev) > k {
		prev = prev[len(prev)-k:]
	}
	return strings.Join(prev, "\x00")
}

// Observe adds one sequence to the counts with the given weight.
func (m *LM) Observe(tokens []string, weight float64) {
	for i, tok := range tokens {
		m.vocab[tok] = true
		ctx := m.context(tokens[:i])
		nexts := m.counts[ctx]
		if nexts == nil {
			nexts = make(map[string]float64)
			m.counts[ctx] = nexts
		}
		nexts[tok] += weight
		m.ctxTot[ctx] += weight
	}
}

// Train runs the three progressive passes over the corpus (§3.2). Task 1
// learns token correlations from the full sequences; Task 2 re-weights the
// index segment given the query context; Task 3 re-weights query tokens
// given only the index/reward conditioning — the inference-time direction.
func (m *LM) Train(samples []Sample, task1, task2, task3 bool) {
	for _, s := range samples {
		if task1 {
			m.Observe(s.Tokens, 1)
		}
		if task2 {
			// Emphasize the transition into and through the index segment.
			if i := indexOf(s.Tokens, TokSEP); i >= 0 {
				m.Observe(s.Tokens[i:], 1)
			}
		}
		if task3 {
			// Generation direction: condition query tokens on the index
			// tokens by observing the sequence rotated to index-first.
			if i := indexOf(s.Tokens, TokSEP); i >= 0 {
				rot := append(append([]string{TokCLS}, s.Tokens[i:]...), s.Tokens[1:i]...)
				m.Observe(rot, 1)
			}
		}
	}
}

const smoothing = 0.05

// Prob returns the smoothed probability of next given the preceding tokens.
func (m *LM) Prob(prev []string, next string) float64 {
	ctx := m.context(prev)
	v := float64(len(m.vocab))
	if v == 0 {
		return 1
	}
	return (m.counts[ctx][next] + smoothing) / (m.ctxTot[ctx] + smoothing*v)
}

// ConstrainedChoose selects one of the candidate identifiers by the paper's
// FSM-constrained prefix-matching decode (§3.3): the identifier is emitted
// sub-token by sub-token; at each step only sub-tokens that extend a prefix
// of some remaining candidate are legal, the model's distribution is
// renormalized over them, and candidates that stop matching are discarded.
// With temperature 0 the decode is greedy; otherwise it samples.
func (m *LM) ConstrainedChoose(context []string, candidates []string, temperature float64, rng *rand.Rand) string {
	if len(candidates) == 0 {
		return ""
	}
	type cand struct {
		name string
		subs []string
	}
	remaining := make([]cand, 0, len(candidates))
	for _, c := range candidates {
		remaining = append(remaining, cand{c, splitIdent(c)})
	}
	ctx := append([]string(nil), context...)
	depth := 0
	for {
		// Survivors fully consumed are final answers.
		for _, c := range remaining {
			if depth == len(c.subs) {
				return c.name
			}
		}
		// Legal next sub-tokens at this depth.
		next := make(map[string][]cand)
		for _, c := range remaining {
			if depth < len(c.subs) {
				tok := c.subs[depth]
				next[tok] = append(next[tok], c)
			}
		}
		if len(next) == 0 {
			return remaining[0].name
		}
		// Score the legal sub-tokens with the LM and pick. The cumulative
		// sampling below walks toks in order, so the order must be stable —
		// ranging over the map here would make the decode depend on map
		// iteration order.
		toks := make([]string, 0, len(next))
		for tok := range next {
			toks = append(toks, tok)
		}
		sort.Strings(toks)
		probs := make([]float64, 0, len(toks))
		total := 0.0
		for _, tok := range toks {
			p := m.Prob(ctx, tok)
			probs = append(probs, p)
			total += p
		}
		chosen := 0
		if temperature <= 0 || rng == nil {
			for i := 1; i < len(probs); i++ {
				if probs[i] > probs[chosen] {
					chosen = i
				}
			}
		} else {
			r := rng.Float64() * total
			acc := 0.0
			for i, p := range probs {
				acc += p
				chosen = i
				if r < acc {
					break
				}
			}
		}
		tok := toks[chosen]
		ctx = append(ctx, tok)
		remaining = next[tok]
		depth++
	}
}

func indexOf(tokens []string, tok string) int {
	for i, t := range tokens {
		if t == tok {
			return i
		}
	}
	return -1
}
