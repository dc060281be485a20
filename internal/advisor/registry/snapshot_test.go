package registry

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/snap"
	"repro/internal/workload"
)

func keys(idx []cost.Index) []string {
	out := make([]string, len(idx))
	for i, ix := range idx {
		out[i] = ix.Key()
	}
	return out
}

// TestSnapshotRoundTripDeterminism is the satellite contract: for every
// advisor, Snapshot → Restore into a fresh instance reproduces the original's
// recommendations exactly — on the training workload, on an unseen workload,
// and after a further Retrain on both sides (which exercises the RNG replay:
// a restored advisor must continue the exact random stream).
func TestSnapshotRoundTripDeterminism(t *testing.T) {
	env, w := testSetup(t)
	other := workload.GenerateNormal(env.Schema, workload.TPCHTemplates(), 8, rand.New(rand.NewSource(55)))
	names := append(append([]string(nil), PaperAdvisors...), "Heuristic")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			ia, err := New(name, env, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			snapper, ok := ia.(advisor.Snapshotter)
			if !ok {
				t.Fatalf("%s does not implement Snapshotter", name)
			}
			ia.Train(w)
			blob, err := snapper.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			fresh, err := New(name, env, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.(advisor.Snapshotter).Restore(blob); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got, want := keys(fresh.Recommend(w)), keys(ia.Recommend(w)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trained-workload recommendation differs:\n got %v\nwant %v", got, want)
			}
			if got, want := keys(fresh.Recommend(other)), keys(ia.Recommend(other)); !reflect.DeepEqual(got, want) {
				t.Fatalf("unseen-workload recommendation differs:\n got %v\nwant %v", got, want)
			}
			// Continue training on both sides: identical streams must yield
			// identical models.
			merged := w.Merge(other)
			ia.Retrain(merged)
			fresh.Retrain(merged)
			if got, want := keys(fresh.Recommend(merged)), keys(ia.Recommend(merged)); !reflect.DeepEqual(got, want) {
				t.Fatalf("post-restore retrain diverges:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestSnapshotRestoreRejectsDamage: corrupted and truncated blobs fail with
// the snap typed errors and leave the advisor's state untouched.
func TestSnapshotRestoreRejectsDamage(t *testing.T) {
	env, w := testSetup(t)
	names := append(append([]string(nil), PaperAdvisors...), "Heuristic")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			ia, err := New(name, env, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			ia.Train(w)
			snapper := ia.(advisor.Snapshotter)
			blob, err := snapper.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			flipped := append([]byte(nil), blob...)
			flipped[len(flipped)/2] ^= 0x01
			if err := snapper.Restore(flipped); !errors.Is(err, snap.ErrCorrupt) {
				t.Errorf("bit flip: err = %v, want ErrCorrupt", err)
			}
			if err := snapper.Restore(blob[:len(blob)-3]); !errors.Is(err, snap.ErrCorrupt) {
				t.Errorf("truncation: err = %v, want ErrCorrupt", err)
			}
			if err := snapper.Restore(nil); !errors.Is(err, snap.ErrCorrupt) {
				t.Errorf("empty blob: err = %v, want ErrCorrupt", err)
			}
			// A failed restore must leave state untouched: re-snapshotting
			// yields the original bytes.
			after, err := snapper.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(blob, after) {
				t.Error("failed restores mutated advisor state")
			}
		})
	}
}

// TestSnapshotRestoreRejectsWrongKind: a blob from one advisor cannot be
// restored into another.
func TestSnapshotRestoreRejectsWrongKind(t *testing.T) {
	env, w := testSetup(t)
	dqn, err := New("DQN-b", env, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	dqn.Train(w)
	blob, err := dqn.(advisor.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	swirl, err := New("SWIRL", env, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := swirl.(advisor.Snapshotter).Restore(blob); !errors.Is(err, snap.ErrKind) {
		t.Errorf("cross-advisor restore: err = %v, want ErrKind", err)
	}
}

// TestSnapshotFormatPinned pins the snapshot bytes of every paper variant and
// the heuristic control: a tiny training run from a fixed seed must seal to
// exactly the recorded SHA-256. A refactor of an advisor must leave these
// digests alone; a deliberate change to a snapshot layout or to training
// updates them, and says so. The digests were recorded on amd64 at the
// default GOAMD64=v1, where Go never fuses a multiply and an add into one
// rounding; architectures where it does may train to other bits and are
// skipped.
func TestSnapshotFormatPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	want := map[string]string{
		"DQN-b":       "94fa09efb9017a862109fded00a6db6259612a9517d62f362e16a1c2f075c2ce",
		"DQN-m":       "71e593c7d9a9492180d39ff6ae1a2536af37871c718794fb5bb333102292beec",
		"DRLindex-b":  "59caeb6f4d79169f901cd6b52d4d174589d2374c9c38a50666990aaf1fb63e1b",
		"DRLindex-m":  "52cd96d978e472222a0355bb08406c4e1b819ef96afed2b1fe2444d4b6b706ac",
		"DBAbandit-b": "afc7a6d8ff46ae0cecab87f4d8d49fb0966145f716a4469d9a6ad9b820a761ba",
		"DBAbandit-m": "dcee0a62755fa286a1a73cb4dc75740113a4f609b626f9b93da66b2f780dfdf8",
		"SWIRL":       "b9a25aaa84f2e9c344fb043b4bc39e53f7b7553ff27e98b0a46e73f2b83e674d",
		"Heuristic":   "200013ee3d2d404e08f28f53a3eeb95e0c57837f56805282344a316449eec2fc",
	}
	env, w := testSetup(t)
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = 6
	cfg.InferTrajectories = 3
	cfg.MeanWindow = 2
	cfg.Hidden = 8
	names := append(append([]string(nil), PaperAdvisors...), "Heuristic")
	for _, name := range names {
		ia, err := New(name, env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ia.Train(w)
		blob, err := ia.(advisor.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want[name] {
			t.Errorf("%s: snapshot SHA-256 %s, want %s", name, got, want[name])
		}
	}
}

// TestCloneAndSnapshotRetrainAgree: a trained network carries training state
// its snapshot bytes leave out (each layer's live input columns, and DQN's
// target-network generation that memoised max-Q values are checked against).
// A clone copies that state; Restore into a fresh advisor rebuilds it by a
// full decode. An advisor retrained on either path must seal to the same
// bytes as its twin taken through Snapshot and Restore, so neither path may
// lose a live column or keep a stale max-Q.
func TestCloneAndSnapshotRetrainAgree(t *testing.T) {
	env, w := testSetup(t)
	other := workload.GenerateNormal(env.Schema, workload.TPCHTemplates(), 8, rand.New(rand.NewSource(55)))
	cfg := fastConfig()
	for _, name := range []string{"DQN-b", "DRLindex-b", "SWIRL"} {
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
			trained := newAdv()
			trained.Train(w)
			clone := trained.(advisor.Cloner).CloneAdvisor()
			for _, c := range []struct {
				path    string
				subject advisor.Advisor
			}{{"trained", trained}, {"clone", clone}} {
				twin := newAdv()
				if err := twin.(advisor.Snapshotter).Restore(snapshot(c.subject)); err != nil {
					t.Fatal(err)
				}
				if p := twin.(restorePather).RestorePath(); p != "decode" {
					t.Fatalf("%s: fresh instance restored by %q", c.path, p)
				}
				for i, rw := range []*workload.Workload{other, w} {
					c.subject.Retrain(rw)
					twin.Retrain(rw)
					if !bytes.Equal(snapshot(c.subject), snapshot(twin)) {
						t.Fatalf("%s: retrain %d: snapshot differs from the decoded twin's", c.path, i+1)
					}
				}
			}
		})
	}
}
