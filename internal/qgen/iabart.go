package qgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/sql"
)

// Generation telemetry: attempts counts verification-loop iterations,
// accepted counts queries that passed the what-if check on the requested
// columns, failures counts Generate calls that returned an error. The
// acceptance rate attempts/accepted is the §3 IAC proxy the run report shows.
var (
	qgenAttempts = obs.GetCounter("qgen_generate_attempts_total")
	qgenAccepted = obs.GetCounter("qgen_generate_accepted_total")
	qgenFailures = obs.GetCounter("qgen_generate_failures_total")
)

// Options configure IABART. The two flags correspond to the progressive
// training ablations of Table 3: disabling UseLM removes Task 1 (token
// correlations; it drives distractor choice and reward tuning), disabling
// IndexConditioning removes Task 2 (the query ⟷ index association; it is
// what targets predicates at the requested columns).
type Options struct {
	UseLM             bool
	IndexConditioning bool
	CorpusSize        int
	LabelBudget       int // index budget of the corpus labeler
	MaxAttempts       int // verification-loop retries per generation
}

// DefaultOptions returns the full IABART configuration.
func DefaultOptions() Options {
	return Options{
		UseLM:             true,
		IndexConditioning: true,
		CorpusSize:        400,
		LabelBudget:       3,
		MaxAttempts:       8,
	}
}

// IABART is the index-aware query generator (§3): given a set of columns it
// emits a syntactically correct, executable, sargable query whose optimal
// index lies on those columns. GAC = 1 holds by construction — decoding is
// FSM-constrained — and index-awareness is enforced by a what-if
// verification loop.
type IABART struct {
	FSM    *FSM
	WhatIf *cost.WhatIf
	LM     *LM
	Label  Labeler
	Opts   Options

	// fkAdj is the schema's FK table graph, built once: concurrent Generate
	// calls read it.
	fkAdj map[string][]sql.Join
}

// TrainIABART builds the §3.1 corpus, runs the §3.2 progressive training
// passes, and returns a ready generator. label may be nil to use the greedy
// what-if labeler.
func TrainIABART(f *FSM, w *cost.WhatIf, label Labeler, opts Options, seed int64) *IABART {
	if label == nil {
		label = GreedyLabeler(w, opts.LabelBudget)
	}
	g := &IABART{FSM: f, WhatIf: w, Label: label, Opts: opts, fkAdj: fkAdjacency(f.Schema)}
	rng := rand.New(rand.NewSource(seed))
	corpus := BuildCorpus(f, w, label, opts.CorpusSize, rng)
	lm := NewLM(3)
	lm.Train(corpus, opts.UseLM, opts.IndexConditioning, true)
	g.LM = lm
	return g
}

// Name implements Generator.
func (g *IABART) Name() string {
	switch {
	case !g.Opts.UseLM && !g.Opts.IndexConditioning:
		return "IABART w/o Task1&2"
	case !g.Opts.UseLM:
		return "IABART w/o Task1"
	case !g.Opts.IndexConditioning:
		return "IABART w/o Task2"
	default:
		return "IABART"
	}
}

// GenerateSQL implements Generator: it renders the verified query, or an
// unverified best effort if verification fails (still grammatical).
func (g *IABART) GenerateSQL(cols []string, rewardTarget float64, rng *rand.Rand) string {
	q, err := g.Generate(cols, rewardTarget, rng)
	if err != nil || q == nil {
		// Fall back to the raw FSM: grammatical but not index-aware.
		return g.FSM.Generate(rng).String()
	}
	return q.String()
}

// Generate produces a query whose optimal single-column index falls on the
// given columns, aiming at the requested relative cost reduction
// rewardTarget ∈ [0, 1). It returns an error when no usable column set
// remains or verification keeps failing.
func (g *IABART) Generate(cols []string, rewardTarget float64, rng *rand.Rand) (*sql.Query, error) {
	tables, tableCols := g.usableColumns(cols)
	if len(tables) == 0 {
		qgenFailures.Inc()
		return nil, fmt.Errorf("qgen: no usable target columns in %v", cols)
	}

	colSet := make(map[string]bool, len(cols))
	for _, c := range cols {
		colSet[c] = true
	}

	// Candidates are verified in a private memo; only the returned query's
	// costs reach the shared cache.
	memo := g.WhatIf.NewMemo()
	accept := func(q *sql.Query) (*sql.Query, error) {
		qgenAccepted.Inc()
		memo.Publish(q)
		return q, nil
	}
	sel := selForTarget(rewardTarget)
	secSel := math.Min(1, sel*2)
	var best *sql.Query
	bestDiff := math.Inf(1)
	for attempt := 0; attempt < g.Opts.MaxAttempts; attempt++ {
		qgenAttempts.Inc()
		q := g.compose(tables, tableCols, sel, secSel, rng)
		if err := sql.Resolve(q, g.FSM.Schema); err != nil {
			// compose only emits schema-valid references.
			panic(fmt.Sprintf("qgen: composed invalid query %q: %v", q, err))
		}
		opt, reward, ok := OptimalSingleColumn(memo, q)
		if ok && colSet[opt] {
			if !g.Opts.UseLM {
				// Without Task 1 there is no reward tuning: first hit wins.
				return accept(q)
			}
			diff := math.Abs(reward - rewardTarget)
			if diff < bestDiff {
				best, bestDiff = q, diff
			}
			if diff < 0.03 {
				return accept(q)
			}
			// Tune: smaller selectivity ⇒ larger index benefit.
			if reward < rewardTarget {
				sel *= 0.4
			} else {
				sel *= 1.8
			}
		} else {
			// The wrong column won (or nothing did): sharpen the target
			// predicates so the requested index dominates.
			sel *= 0.35
		}
		if sel < 1e-7 {
			sel = 1e-7
		}
	}
	if best != nil {
		return accept(best)
	}
	qgenFailures.Inc()
	return nil, fmt.Errorf("qgen: verification failed for columns %v", cols)
}

// usableColumns groups target columns by table, keeping every table
// connectable to the primary one (most target columns) through the schema's
// FK graph — multi-hop join paths are filled in by joinTree at composition.
func (g *IABART) usableColumns(cols []string) ([]string, map[string][]*catalog.Column) {
	byTable := make(map[string][]*catalog.Column)
	for _, c := range cols {
		col := g.FSM.Schema.Column(c)
		if col == nil {
			continue
		}
		byTable[col.Table] = append(byTable[col.Table], col)
	}
	if len(byTable) == 0 {
		return nil, nil
	}
	primary := ""
	for t, cs := range byTable {
		if primary == "" || len(cs) > len(byTable[primary]) ||
			(len(cs) == len(byTable[primary]) && t < primary) {
			primary = t
		}
	}
	tables := []string{primary}
	for t := range byTable {
		if t == primary {
			continue
		}
		if g.fkPath(primary, t) != nil {
			tables = append(tables, t)
		} else {
			delete(byTable, t)
		}
	}
	sort.Strings(tables[1:])
	return tables, byTable
}

// fkAdjacency builds the undirected table graph induced by FK edges, each
// edge carrying its join condition.
func fkAdjacency(s *catalog.Schema) map[string][]sql.Join {
	adj := make(map[string][]sql.Join)
	for _, t := range s.Tables {
		for _, fk := range t.FKs {
			if fk.RefTable == t.Name {
				continue
			}
			j := sql.Join{
				Left:  t.Name + "." + fk.Column,
				Right: fk.RefTable + "." + fk.RefColumn,
			}
			adj[t.Name] = append(adj[t.Name], j)
			adj[fk.RefTable] = append(adj[fk.RefTable], j)
		}
	}
	return adj
}

// fkPath returns the join conditions along a shortest FK path from a to b,
// or nil when the tables are disconnected.
func (g *IABART) fkPath(a, b string) []sql.Join {
	if a == b {
		return []sql.Join{}
	}
	adj := g.fkAdj
	type node struct {
		table string
		path  []sql.Join
	}
	seen := map[string]bool{a: true}
	queue := []node{{a, nil}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, j := range adj[cur.table] {
			next := sql.TableOf(j.Left)
			if next == cur.table {
				next = sql.TableOf(j.Right)
			}
			if seen[next] {
				continue
			}
			path := append(append([]sql.Join(nil), cur.path...), j)
			if next == b {
				return path
			}
			seen[next] = true
			queue = append(queue, node{next, path})
		}
	}
	return nil
}

// joinTree connects all tables to the first via FK paths, returning the full
// table list (including intermediates) and join conditions, deduplicated.
func (g *IABART) joinTree(tables []string) ([]string, []sql.Join) {
	inTree := map[string]bool{tables[0]: true}
	out := []string{tables[0]}
	var joins []sql.Join
	seenJoin := make(map[string]bool)
	for _, t := range tables[1:] {
		if inTree[t] {
			continue
		}
		path := g.fkPath(tables[0], t)
		for _, j := range path {
			key := j.Left + "=" + j.Right
			if !seenJoin[key] {
				seenJoin[key] = true
				joins = append(joins, j)
			}
			for _, tn := range []string{sql.TableOf(j.Left), sql.TableOf(j.Right)} {
				if !inTree[tn] {
					inTree[tn] = true
					out = append(out, tn)
				}
			}
		}
	}
	return out, joins
}

// compose builds one candidate query: predicates on the target columns with
// the current selectivity knob, FK join paths between their tables, and
// LM-decoded structural variety (distractor aggregates, grouping, ordering).
func (g *IABART) compose(tables []string, tableCols map[string][]*catalog.Column, leadSel, secSel float64, rng *rand.Rand) *sql.Query {
	qTables, joins := g.joinTree(tables)
	q := &sql.Query{Tables: qTables, Joins: joins}

	first := true
	var lead *catalog.Column
	for _, t := range tables {
		for _, col := range tableCols[t] {
			target := col
			if !g.Opts.IndexConditioning && rng.Float64() < 0.5 {
				// Ablated Task 2: the query ⟷ index association is lost and
				// predicates drift to arbitrary columns of the table.
				tc := g.FSM.Schema.Table(col.Table).Columns
				target = tc[rng.Intn(len(tc))]
			}
			s := leadSel
			if first {
				lead = target
			} else {
				// Secondary target predicates stay sharp regardless of the
				// lead tuning, so the labeler keeps preferring all targets.
				s = secSel
			}
			if !first && rng.Float64() < 0.35 {
				q.Where = append(q.Where, g.FSM.PredicateINWithSelectivity(target, s, rng))
			} else {
				q.Where = append(q.Where, g.FSM.PredicateWithSelectivity(target, s, rng))
			}
			first = false
		}
	}

	// Occasionally project a plain column from a joined table for shape
	// variety (and guaranteed non-covering output).
	if len(q.Tables) > 1 && rng.Float64() < 0.4 {
		t := g.FSM.Schema.Table(q.Tables[1+rng.Intn(len(q.Tables)-1)])
		col := t.Columns[rng.Intn(len(t.Columns))]
		defer func() {
			q.Select = append(q.Select, sql.SelectItem{Column: col.QualifiedName()})
			if len(q.GroupBy) > 0 {
				q.GroupBy = append(q.GroupBy, col.QualifiedName())
			}
		}()
	}

	// Distractor projection: COUNT(*) plus 1-2 aggregates over columns
	// chosen by constrained decoding, keeping the query non-covering and
	// token-diverse.
	q.Select = []sql.SelectItem{{Agg: sql.AggCount, Star: true}}
	aggs := []sql.AggFunc{sql.AggSum, sql.AggAvg, sql.AggMin, sql.AggMax}
	nDistract := 1 + rng.Intn(2)
	for i := 0; i < nDistract; i++ {
		tbl := g.FSM.Schema.Table(q.Tables[rng.Intn(len(q.Tables))])
		var cands []string
		for _, c := range tbl.Columns {
			cands = append(cands, c.Name)
		}
		var pick string
		if g.LM != nil && g.Opts.UseLM {
			pick = g.LM.ConstrainedChoose([]string{"select", "sum", "("}, cands, 0.7, rng)
		} else {
			pick = cands[rng.Intn(len(cands))]
		}
		if pick != "" {
			q.Select = append(q.Select, sql.SelectItem{
				Agg: aggs[rng.Intn(len(aggs))], Column: tbl.Name + "." + pick,
			})
		}
	}

	// Occasional GROUP BY on the lead target column (keeps it sargable) for
	// structural diversity.
	if lead != nil && rng.Float64() < 0.3 {
		q.GroupBy = []string{lead.QualifiedName()}
		q.Select = append(q.Select, sql.SelectItem{Column: lead.QualifiedName()})
	}
	// Occasional ORDER BY on the lead column (still index-friendly: the
	// index provides the order) with a LIMIT, for further shape variety.
	if lead != nil && len(q.GroupBy) == 0 && rng.Float64() < 0.35 {
		q.OrderBy = []sql.OrderItem{{Column: lead.QualifiedName(), Desc: rng.Float64() < 0.5}}
		if rng.Float64() < 0.6 {
			q.Limit = 1 + rng.Intn(200)
		}
	}
	return q
}

// selForTarget seeds the selectivity knob from the reward target: higher
// targets need sharper predicates.
func selForTarget(reward float64) float64 {
	if reward <= 0 {
		return 0.02
	}
	// Map [0,1) roughly onto [0.02, 1e-5] log-linearly.
	return math.Pow(10, -1.7-3.3*reward) * 2
}
