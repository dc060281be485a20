package serve

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/workload"
)

var (
	restoresTotal  = obs.GetCounter("serve_restores_total")
	swapsTotal     = obs.GetCounter("serve_swaps_total")
	restoreSeconds = obs.Default.Metrics.Histogram("serve_restore_seconds",
		[]float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1})
)

// restorePather is an advisor that reports how its last successful Restore
// ran, "decode" or "rewind"; all five paper advisors do.
type restorePather interface {
	RestorePath() string
}

// snapshotRef is one immutable published model: the snap-encoded blob plus
// its serving version. Publish swaps the whole struct atomically, so a
// reader always sees a matching (blob, version) pair.
type snapshotRef struct {
	blob    []byte
	version uint64
}

// Model is the serving side of the hot-swap: an atomically-published model
// snapshot plus a bounded pool of replica advisor instances that restore it
// per request.
//
// Serving is deliberately stateless: every full-tier recommendation restores
// the current snapshot into a replica before inference, so trial-based
// advisors (whose Recommend consumes RNG draws) give byte-identical answers
// for identical requests, and a rolled-back update is invisible — the
// published snapshot never contained it. The restore is cheap after the
// first: a replica decodes each published blob once, and restoring the blob
// it already holds only rewinds its RNG (advisor.Rewinder). Replicas keep
// the published blob by reference, so a blob must not be modified once
// passed to NewModel or Publish. Publish never blocks serving: requests that
// already loaded the previous snapshot finish against it (stale-model
// serving), later requests see the new one.
type Model struct {
	cur      atomic.Pointer[snapshotRef]
	replicas chan advisor.Advisor
}

// NewModel publishes the initial snapshot (version 1) over the given replica
// instances. Every replica must implement advisor.Snapshotter and accept the
// blob — typically fresh instances from the same registry config that built
// the training advisor.
func NewModel(blob []byte, replicas []advisor.Advisor) (*Model, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: model needs at least one replica")
	}
	m := &Model{replicas: make(chan advisor.Advisor, len(replicas))}
	for i, r := range replicas {
		if _, ok := r.(advisor.Snapshotter); !ok {
			return nil, fmt.Errorf("serve: replica %d (%s) does not implement Snapshotter", i, r.Name())
		}
		m.replicas <- r
	}
	m.cur.Store(&snapshotRef{blob: blob, version: 1})
	return m, nil
}

// Version returns the currently published model version.
func (m *Model) Version() uint64 { return m.cur.Load().version }

// Publish atomically swaps in a new snapshot and returns its version.
// In-flight recommendations keep serving the previous snapshot.
func (m *Model) Publish(blob []byte) uint64 {
	v := m.cur.Load().version + 1
	m.cur.Store(&snapshotRef{blob: blob, version: v})
	swapsTotal.Inc()
	return v
}

// Recommend answers from the published snapshot: wait for a free replica
// (bounded by ctx — the ladder's degrade budget), restore the snapshot into
// it, and run inference. The restore decodes only the first time a replica
// sees a version and rewinds the replica's RNG otherwise; the serve:restore
// span records which as its "path". The returned version identifies the
// snapshot that answered.
func (m *Model) Recommend(ctx context.Context, w *workload.Workload) ([]cost.Index, uint64, error) {
	snap := m.cur.Load()
	span := obs.SpanFrom(ctx)
	wait := span.StartChild("serve:replica-wait")
	select {
	case rep := <-m.replicas:
		wait.End()
		defer func() { m.replicas <- rep }()
		start := time.Now()
		rst := span.StartChild("serve:restore")
		if err := rep.(advisor.Snapshotter).Restore(snap.blob); err != nil {
			rst.Annotate("error", err.Error())
			rst.End()
			return nil, 0, fmt.Errorf("serve: restore snapshot v%d: %w", snap.version, err)
		}
		rst.Annotate("version", strconv.FormatUint(snap.version, 10))
		if r, ok := rep.(restorePather); ok {
			rst.Annotate("path", r.RestorePath())
		}
		rst.End()
		restoreSeconds.Observe(time.Since(start).Seconds())
		restoresTotal.Inc()
		inf := span.StartChild("serve:infer")
		idx := rep.Recommend(w)
		inf.End()
		return idx, snap.version, nil
	case <-ctx.Done():
		wait.Annotate("error", ctx.Err().Error())
		wait.End()
		return nil, 0, ctx.Err()
	}
}
