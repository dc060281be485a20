package registry

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/advisor"
	"repro/internal/workload"
)

// restorePather is an advisor that reports how its last Restore ran.
type restorePather interface{ RestorePath() string }

// TestRestoreRewindMatchesDecode is the differential property behind
// restore-once serving: an advisor whose Restore may rewind (because it
// already holds the blob) stays indistinguishable from a twin that decodes
// every blob into a fresh instance. Random op sequences mix Restore of two
// trained blobs and an untrained one (each by the same slice or by an
// equal-content copy), rollback-style Snapshot → Retrain → Restore(pre), and
// Recommend, Retrain and Train on two workloads. After every step both sides
// must snapshot to the same bytes, and every Recommend must agree.
func TestRestoreRewindMatchesDecode(t *testing.T) {
	env, w := testSetup(t)
	other := workload.GenerateNormal(env.Schema, workload.TPCHTemplates(), 8, rand.New(rand.NewSource(55)))
	workloads := []*workload.Workload{w, other}
	cfg := fastConfig()
	cfg.Trajectories = 6
	names := append(append([]string(nil), PaperAdvisors...), "Heuristic")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			newAdv := func() advisor.Advisor {
				a, err := New(name, env, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			snapshot := func(a advisor.Advisor) []byte {
				b, err := a.(advisor.Snapshotter).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			restore := func(a advisor.Advisor, blob []byte) {
				if err := a.(advisor.Snapshotter).Restore(blob); err != nil {
					t.Fatal(err)
				}
			}
			// decoded is the twin's side of a Restore: a fresh instance, so
			// the blob is always decoded in full.
			decoded := func(blob []byte) advisor.Advisor {
				a := newAdv()
				restore(a, blob)
				if p := a.(restorePather).RestorePath(); p != "decode" {
					t.Fatalf("fresh instance restored by %q", p)
				}
				return a
			}
			trained := func(w *workload.Workload) []byte {
				a := newAdv()
				a.Train(w)
				return snapshot(a)
			}
			base := [][]byte{trained(w), trained(other), snapshot(newAdv())}

			// "serve" is listed twice: restoring the blob just restored, then
			// recommending, is the pattern that takes the rewind path.
			ops := []string{"serve", "serve", "restore", "restore-copy", "rollback", "recommend", "retrain", "train"}
			rewinds := 0
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				blobs := append([][]byte(nil), base...)
				last := blobs[0]
				subject, twin := newAdv(), newAdv()
				restoreBoth := func(blob []byte) {
					restore(subject, blob)
					twin = decoded(blob)
					last = blob
					if subject.(restorePather).RestorePath() == "rewind" {
						rewinds++
					}
				}
				for step := 0; step < 24; step++ {
					wl := workloads[rng.Intn(len(workloads))]
					op := ops[rng.Intn(len(ops))]
					switch op {
					case "serve": // what a serving replica does per request
						restoreBoth(last)
						fallthrough
					case "recommend":
						got, want := keys(subject.Recommend(wl)), keys(twin.Recommend(wl))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d step %d (%s): recommend differs:\n got %v\nwant %v", seed, step, op, got, want)
						}
					case "restore":
						restoreBoth(blobs[rng.Intn(len(blobs))])
					case "restore-copy":
						restoreBoth(append([]byte(nil), blobs[rng.Intn(len(blobs))]...))
					case "rollback":
						// The guard's rollback; pre joins the pool so later
						// steps restore it again by the same slice.
						pre := snapshot(subject)
						subject.Retrain(wl)
						restoreBoth(pre)
						blobs = append(blobs, pre)
					case "retrain":
						subject.Retrain(wl)
						twin.Retrain(wl)
					case "train":
						subject.Train(wl)
						twin.Train(wl)
					}
					if !bytes.Equal(snapshot(subject), snapshot(twin)) {
						t.Fatalf("seed %d step %d (%s): snapshot differs from the fully decoded twin", seed, step, op)
					}
				}
			}
			if rewinds == 0 {
				t.Fatal("no Restore took the rewind path; the property was not exercised")
			}
		})
	}
}
