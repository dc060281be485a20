package serve

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/workload"
)

var (
	restoreDecodes = obs.GetCounter(obs.Name("advisor_restores_total", "path", "decode"))
	restoreRewinds = obs.GetCounter(obs.Name("advisor_restores_total", "path", "rewind"))
)

// realModelFixture is a trial-based learned advisor (DQN-b, whose Recommend
// draws from its RNG) with one blob per model version: version v is
// blobs[v-1], each a further Retrain of the same training instance.
type realModelFixture struct {
	newAdv func(t *testing.T) advisor.Advisor
	blobs  [][]byte
	reqs   []*workload.Workload
}

func newRealModelFixture(t *testing.T, versions int) *realModelFixture {
	t.Helper()
	s := catalog.TPCH(1)
	env := advisor.NewEnv(s, cost.NewWhatIf(cost.NewModel(s)))
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = 10
	cfg.InferTrajectories = 8
	cfg.MeanWindow = 4
	cfg.Hidden = 32
	f := &realModelFixture{newAdv: func(t *testing.T) advisor.Advisor {
		a, err := registry.New("DQN-b", env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}}
	rng := rand.New(rand.NewSource(3))
	f.reqs = []*workload.Workload{
		workload.GenerateNormal(s, workload.TPCHTemplates(), 10, rng),
		workload.GenerateNormal(s, workload.TPCHTemplates(), 6, rng),
	}
	trainer := f.newAdv(t)
	trainer.Train(f.reqs[0])
	for v := 1; v <= versions; v++ {
		if v > 1 {
			trainer.Retrain(f.reqs[v%2])
		}
		blob, err := trainer.(advisor.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		f.blobs = append(f.blobs, blob)
	}
	return f
}

// reference answers req out of band: a fresh instance decodes version v's
// blob, then recommends.
func (f *realModelFixture) reference(t *testing.T, v uint64, req *workload.Workload) []string {
	t.Helper()
	a := f.newAdv(t)
	if err := a.(advisor.Snapshotter).Restore(f.blobs[v-1]); err != nil {
		t.Fatal(err)
	}
	return indexKeys(a.Recommend(req))
}

func indexKeys(idx []cost.Index) []string {
	out := make([]string, len(idx))
	for i, ix := range idx {
		out[i] = ix.Key()
	}
	return out
}

// TestModelHotSwapMatchesFreshRestore: two real replicas answer concurrent
// recommends while six new versions are published. Every answer must equal a
// fresh Restore+Recommend of the version it reports, so a replica that
// rewinds instead of decoding is indistinguishable from one that decodes.
func TestModelHotSwapMatchesFreshRestore(t *testing.T) {
	const versions, clients, perVersion = 7, 4, 20
	f := newRealModelFixture(t, versions)
	m, err := NewModel(f.blobs[0], []advisor.Advisor{f.newAdv(t), f.newAdv(t)})
	if err != nil {
		t.Fatal(err)
	}

	type answer struct {
		version uint64
		req     int
		keys    []string
	}
	var (
		mu       sync.Mutex
		answers  []answer
		answered atomic.Int64
		done     atomic.Bool
		wg       sync.WaitGroup
	)
	decodes0, rewinds0 := restoreDecodes.Value(), restoreRewinds.Value()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; !done.Load(); i++ {
				req := i % len(f.reqs)
				idx, v, err := m.Recommend(context.Background(), f.reqs[req])
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				answers = append(answers, answer{v, req, indexKeys(idx)})
				mu.Unlock()
				answered.Add(1)
			}
		}(c)
	}
	defer func() { done.Store(true); wg.Wait() }()
	waitAnswers := func(n int64) {
		waitUntil(t, time.Minute, "answers", func() bool { return answered.Load() >= n })
	}
	// Count each version's answers from its publish: only the requests in
	// flight at a publish can still report the old version, so perVersion
	// more answers include the new one however fast the clients run.
	next := int64(perVersion)
	for v := 2; v <= versions; v++ {
		waitAnswers(next)
		if got := m.Publish(f.blobs[v-1]); got != uint64(v) {
			t.Fatalf("Publish returned version %d, want %d", got, v)
		}
		next = answered.Load() + perVersion
	}
	waitAnswers(next)
	done.Store(true)
	wg.Wait()
	decodes := restoreDecodes.Value() - decodes0
	rewinds := restoreRewinds.Value() - rewinds0

	seen := map[uint64]bool{}
	want := map[[2]uint64][]string{}
	for _, a := range answers {
		seen[a.version] = true
		k := [2]uint64{a.version, uint64(a.req)}
		if _, ok := want[k]; !ok {
			want[k] = f.reference(t, a.version, f.reqs[a.req])
		}
		if !reflect.DeepEqual(a.keys, want[k]) {
			t.Fatalf("v%d req %d: served %v, fresh restore answers %v", a.version, a.req, a.keys, want[k])
		}
	}
	if len(seen) != versions {
		t.Errorf("answers came from %d versions, want all %d", len(seen), versions)
	}
	// Each replica decodes a version once (a stale request can make it decode
	// one again); every other restore is a rewind.
	if n := int64(len(answers)); decodes+rewinds != n || decodes > n/2 {
		t.Errorf("restores: %d decodes + %d rewinds for %d answers", decodes, rewinds, n)
	}
}

// TestModelRestorePath: one replica decodes each published version on its
// first request and rewinds on the next ones, and the serve:restore span
// and advisor_restores_total say which.
func TestModelRestorePath(t *testing.T) {
	f := newRealModelFixture(t, 2)
	m, err := NewModel(f.blobs[0], []advisor.Advisor{f.newAdv(t)})
	if err != nil {
		t.Fatal(err)
	}
	decodes0, rewinds0 := restoreDecodes.Value(), restoreRewinds.Value()
	var paths []string
	recommend := func() {
		tr := obs.NewTrace("recommend", nil)
		ctx := obs.ContextWithSpan(context.Background(), tr.Root())
		if _, _, err := m.Recommend(ctx, f.reqs[0]); err != nil {
			t.Fatal(err)
		}
		tr.End()
		rst := obs.FindTSpan(tr.Snapshot().Root, "serve:restore")
		if rst == nil {
			t.Fatal("no serve:restore span")
		}
		p, _ := rst.Attr("path")
		paths = append(paths, p)
	}
	recommend()
	recommend()
	recommend()
	m.Publish(f.blobs[1])
	recommend()
	recommend()
	if got := strings.Join(paths, ","); got != "decode,rewind,rewind,decode,rewind" {
		t.Errorf("serve:restore paths = %s", got)
	}
	if d, r := restoreDecodes.Value()-decodes0, restoreRewinds.Value()-rewinds0; d != 2 || r != 3 {
		t.Errorf("advisor_restores_total: decode %d, rewind %d; want 2 and 3", d, r)
	}
}
