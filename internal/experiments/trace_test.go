package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// phase cuts a span name at its first ':' ("train:DQN-b" → "train").
func phase(name string) string {
	if i := strings.IndexByte(name, ':'); i > 0 {
		return name[:i]
	}
	return name
}

// tracedMainResult runs the Fig. 7 grid for two advisors under one
// experiment trace and returns the finished span tree.
func tracedMainResult(t *testing.T, workers int) *obs.TSpanSnapshot {
	t.Helper()
	s := *tinySetup
	s.Workers = workers
	tr := obs.NewTrace("experiment:fig7", nil)
	if _, err := RunMainResult(obs.ContextWithSpan(context.Background(), tr.Root()), &s, []string{"DQN-b", "Heuristic"}); err != nil {
		t.Fatal(err)
	}
	tr.End()
	return tr.Snapshot().Root
}

// TestSpanTreeIndependentOfWorkers: parallel cells grow one experiment trace
// through their contexts, so the tree's shape — the multiset of
// parent→child phase edges — is the same at any -workers width, and every
// span sits under its true parent.
func TestSpanTreeIndependentOfWorkers(t *testing.T) {
	var edges []map[string]int
	for _, workers := range []int{1, 4} {
		root := tracedMainResult(t, workers)
		e := make(map[string]int)
		var walk func(s *obs.TSpanSnapshot)
		walk = func(s *obs.TSpanSnapshot) {
			for _, c := range s.Children {
				e[phase(s.Name)+"→"+phase(c.Name)]++
				walk(c)
			}
		}
		walk(root)
		edges = append(edges, e)

		var stresses, epochs int
		var check func(parent, s *obs.TSpanSnapshot)
		check = func(parent, s *obs.TSpanSnapshot) {
			switch s.Name {
			case "pipa.stress":
				stresses++
				if parent != root {
					t.Errorf("workers=%d: pipa.stress under %q, want the root", workers, parent.Name)
				}
				var kids []string
				for _, c := range s.Children {
					kids = append(kids, c.Name)
				}
				if want := []string{"recommend:baseline", "inject", "retrain", "recommend:poisoned"}; !reflect.DeepEqual(kids, want) {
					t.Errorf("workers=%d: pipa.stress children = %v, want %v", workers, kids, want)
				}
			case "probe.epoch":
				epochs++
				if parent.Name != "pipa.probe" {
					t.Errorf("workers=%d: probe.epoch under %q, want pipa.probe", workers, parent.Name)
				}
			}
			for _, c := range s.Children {
				check(s, c)
			}
		}
		for _, c := range root.Children {
			check(root, c)
		}
		if stresses == 0 || epochs == 0 {
			t.Fatalf("workers=%d: %d pipa.stress and %d probe.epoch spans, want both", workers, stresses, epochs)
		}
	}
	if !reflect.DeepEqual(edges[0], edges[1]) {
		t.Fatalf("span edges differ across widths:\nworkers=1: %v\nworkers=4: %v", edges[0], edges[1])
	}
}
