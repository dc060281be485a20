package guard

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/advisor"
	"repro/internal/snap"
)

// stateCanary is a canary hook that is a pure function of the stub's state,
// so a restored-and-resumed run reproduces the exact canary sequence of an
// uninterrupted one without any external script position to resync.
func stateCanary(s *stubAdvisor) func(advisor.Advisor) float64 {
	return func(advisor.Advisor) float64 { return 100 + s.param }
}

// persistTimeline is the batch-size sequence shared by the determinism and
// kill-and-resume tests. With anchor f(1)=101 and budget 0.05, attempts 1, 2
// and 4 commit and attempt 3 (batch of 8) rolls back.
var persistTimeline = []int{2, 2, 8, 1}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first" {
		t.Fatalf("read back %q, %v", got, err)
	}
	// Overwrite in place.
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("after overwrite: %q", got)
	}
	// No temp files left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "blob" {
		t.Fatalf("directory not clean: %v", ents)
	}
}

// checkpointedTrainer runs Train plus one committing Retrain so both
// checkpoint files exist in dir.
func checkpointedTrainer(t *testing.T, dir string) {
	t.Helper()
	stub := &stubAdvisor{}
	tr, err := NewTrainer(stub, Config{Budget: 0.05, ModelDir: dir, CanaryCost: stateCanary(stub)})
	if err != nil {
		t.Fatal(err)
	}
	tr.Train(batch(t, 1))
	tr.Retrain(batch(t, 2))
	if tr.LastOutcome() != Committed {
		t.Fatalf("setup retrain outcome = %v", tr.LastOutcome())
	}
}

func TestTryRestoreMissingAndDamaged(t *testing.T) {
	newTrainer := func(dir string) *Trainer {
		stub := &stubAdvisor{}
		tr, err := NewTrainer(stub, Config{Budget: 0.05, ModelDir: dir, CanaryCost: stateCanary(stub)})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// No ModelDir configured: clean miss.
	stub := &stubAdvisor{}
	tr, err := NewTrainer(stub, Config{Budget: 0.05, CanaryCost: stateCanary(stub)})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := tr.TryRestore(); ok || err != nil {
		t.Fatalf("no ModelDir: restored=%v err=%v", ok, err)
	}

	// Empty directory: clean miss.
	dir := t.TempDir()
	if ok, err := newTrainer(dir).TryRestore(); ok || err != nil {
		t.Fatalf("empty dir: restored=%v err=%v", ok, err)
	}

	checkpointedTrainer(t, dir)
	tr = newTrainer(dir)
	metaPath, modelPath := tr.metaPath(), tr.modelPath()
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	model, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}

	// Intact checkpoint restores.
	if ok, err := newTrainer(dir).TryRestore(); !ok || err != nil {
		t.Fatalf("intact checkpoint: restored=%v err=%v", ok, err)
	}

	flip := func(path string, blob []byte) {
		t.Helper()
		damaged := append([]byte(nil), blob...)
		damaged[len(damaged)/2] ^= 0x20
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A torn/corrupted metadata file is an error, never a silent miss.
	flip(metaPath, meta)
	if ok, err := newTrainer(dir).TryRestore(); err == nil {
		t.Fatalf("damaged meta: restored=%v err=nil", ok)
	}
	if err := os.WriteFile(metaPath, meta, 0o644); err != nil {
		t.Fatal(err)
	}

	// Same for the model blob.
	flip(modelPath, model)
	if ok, err := newTrainer(dir).TryRestore(); err == nil {
		t.Fatalf("damaged model: restored=%v err=nil", ok)
	}

	// A missing model beside an intact meta is treated as no checkpoint.
	if err := os.Remove(modelPath); err != nil {
		t.Fatal(err)
	}
	if ok, err := newTrainer(dir).TryRestore(); ok || err != nil {
		t.Fatalf("missing model: restored=%v err=%v", ok, err)
	}

	// Truncated-to-empty meta (the classic torn write) is also an error.
	if err := os.WriteFile(modelPath, model, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := newTrainer(dir).TryRestore(); err == nil {
		t.Fatalf("empty meta: restored=%v err=nil", ok)
	}
}

// TestPersistKeepsQuarantineSource: each quarantine entry's source survives
// Persist → TryRestore, and a checkpoint written before sources were
// persisted still restores, with empty sources.
func TestPersistKeepsQuarantineSource(t *testing.T) {
	dir := t.TempDir()
	restore := func() *Trainer {
		t.Helper()
		stub := &stubAdvisor{}
		tr, err := NewTrainer(stub, Config{Budget: 0.05, ModelDir: dir, CanaryCost: stateCanary(stub)})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := tr.TryRestore(); !ok || err != nil {
			t.Fatalf("TryRestore = %v, %v", ok, err)
		}
		return tr
	}

	stub := &stubAdvisor{}
	tr, err := NewTrainer(stub, Config{Budget: 0.05, ModelDir: dir, CanaryCost: stateCanary(stub)})
	if err != nil {
		t.Fatal(err)
	}
	tr.Train(batch(t, 1))
	q := tr.Quarantine()
	q.AddSource("q1", "screened", "PIPA")
	q.AddSource("q2", "screened", "PIPA")
	q.AddSource("q3", "rolled back", "FSM")
	q.Add("q4", "rolled back")
	want := q.BySource()
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}
	if got := restore().Quarantine().BySource(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored BySource = %v, want %v", got, want)
	}

	// The layout before sources were persisted: stats, anchor, then the
	// quarantine's entries with no trailing source list.
	var e snap.Encoder
	for i := 0; i < 8; i++ {
		e.Uint64(0) // Attempts … Trips
	}
	e.Float64(0)   // LastCanaryAD
	e.Bool(true)   // anchored
	e.Float64(101) // canaryBase
	e.Uint64(1)    // next Seq
	e.Uint64(0)    // evicted
	e.Uint64(1)    // one entry
	e.String("q1")
	e.String("screened")
	e.Uint64(0)
	if err := WriteFileAtomic(tr.metaPath(), e.Seal(metaKind)); err != nil {
		t.Fatal(err)
	}
	got := restore().Quarantine().Entries()
	if len(got) != 1 || got[0].Query != "q1" || got[0].Source != "" {
		t.Errorf("old-format quarantine = %+v, want q1 with an empty source", got)
	}
}

// finalState captures everything a resumed run must reproduce.
type finalState struct {
	model      []byte // .model file bytes
	meta       []byte // .guard file bytes
	liveSnap   []byte // in-process advisor snapshot
	stats      Stats
	quarantine []Entry
}

func captureFinal(t *testing.T, tr *Trainer) finalState {
	t.Helper()
	model, err := os.ReadFile(tr.modelPath())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(tr.metaPath())
	if err != nil {
		t.Fatal(err)
	}
	live, err := tr.snapr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return finalState{model: model, meta: meta, liveSnap: live,
		stats: tr.Stats(), quarantine: tr.Quarantine().Entries()}
}

func TestPersistRestoreResumeDeterminism(t *testing.T) {
	run := func(dir string) *Trainer {
		stub := &stubAdvisor{}
		tr, err := NewTrainer(stub, Config{Budget: 0.05, ModelDir: dir, CanaryCost: stateCanary(stub)})
		if err != nil {
			t.Fatal(err)
		}
		tr.Train(batch(t, 1))
		for _, n := range persistTimeline {
			tr.Retrain(batch(t, n))
		}
		return tr
	}

	// Reference: the uninterrupted run.
	dirA := t.TempDir()
	ref := captureFinal(t, run(dirA))
	if ref.stats.Commits != 3 || ref.stats.Rollbacks != 1 {
		t.Fatalf("reference stats = %+v, want 3 commits / 1 rollback", ref.stats)
	}

	// Interrupted run: stop after the first two (committing) attempts…
	dirB := t.TempDir()
	stub1 := &stubAdvisor{}
	tr1, err := NewTrainer(stub1, Config{Budget: 0.05, ModelDir: dirB, CanaryCost: stateCanary(stub1)})
	if err != nil {
		t.Fatal(err)
	}
	tr1.Train(batch(t, 1))
	tr1.Retrain(batch(t, persistTimeline[0]))
	tr1.Retrain(batch(t, persistTimeline[1]))

	// …then resume into a fresh trainer and feed it the rest of the
	// timeline: the batches from the restored attempt count on.
	stub2 := &stubAdvisor{}
	tr2, err := NewTrainer(stub2, Config{Budget: 0.05, ModelDir: dirB, CanaryCost: stateCanary(stub2)})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := tr2.TryRestore(); !ok || err != nil {
		t.Fatalf("TryRestore = %v, %v", ok, err)
	}
	done := tr2.Stats().Attempts
	if done != 2 {
		t.Fatalf("restored Attempts = %d, want 2", done)
	}
	for _, n := range persistTimeline[done:] {
		tr2.Retrain(batch(t, n))
	}

	got := captureFinal(t, tr2)
	if !bytes.Equal(got.model, ref.model) {
		t.Error("persisted model bytes diverge from the uninterrupted run")
	}
	if !bytes.Equal(got.meta, ref.meta) {
		t.Error("persisted guard metadata diverges from the uninterrupted run")
	}
	if !bytes.Equal(got.liveSnap, ref.liveSnap) {
		t.Error("in-process advisor state diverges from the uninterrupted run")
	}
	if got.stats != ref.stats {
		t.Errorf("stats = %+v, want %+v", got.stats, ref.stats)
	}
	if !reflect.DeepEqual(got.quarantine, ref.quarantine) {
		t.Errorf("quarantine = %+v, want %+v", got.quarantine, ref.quarantine)
	}
}

// TestGuardKillAndResume re-executes the test binary as a guarded run that
// SIGKILLs itself mid-timeline, resumes it from the surviving checkpoint, and
// requires the final checkpoint files to be byte-identical to an
// uninterrupted run's.
func TestGuardKillAndResume(t *testing.T) {
	if dir := os.Getenv("GUARD_PERSIST_DIR"); dir != "" {
		runGuardChild(t, dir, os.Getenv("GUARD_PERSIST_KILL") == "1")
		return
	}

	// Reference run, in-process.
	dirRef := t.TempDir()
	stubRef := &stubAdvisor{}
	trRef, err := NewTrainer(stubRef, Config{Budget: 0.05, ModelDir: dirRef, CanaryCost: stateCanary(stubRef)})
	if err != nil {
		t.Fatal(err)
	}
	trRef.Train(batch(t, 1))
	for _, n := range persistTimeline {
		trRef.Retrain(batch(t, n))
	}
	ref := captureFinal(t, trRef)

	dir := t.TempDir()
	child := func(kill bool) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestGuardKillAndResume$")
		cmd.Env = append(os.Environ(), "GUARD_PERSIST_DIR="+dir)
		if kill {
			cmd.Env = append(cmd.Env, "GUARD_PERSIST_KILL=1")
		}
		return cmd
	}

	// First child SIGKILLs itself after the second attempt's commit.
	out, err := child(true).CombinedOutput()
	if err == nil {
		t.Fatalf("killed child exited cleanly:\n%s", out)
	}
	var exitErr *exec.ExitError
	if ok := asExitError(err, &exitErr); !ok ||
		exitErr.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("child not killed by SIGKILL: %v\n%s", err, out)
	}

	// Second child resumes from the checkpoint and finishes the timeline.
	if out, err := child(false).CombinedOutput(); err != nil {
		t.Fatalf("resumed child failed: %v\n%s", err, out)
	}

	for _, f := range []struct {
		name string
		want []byte
	}{{"Stub.model", ref.model}, {"Stub.guard", ref.meta}} {
		got, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.want) {
			t.Errorf("%s diverges from the uninterrupted run", f.name)
		}
	}
}

func asExitError(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}

// runGuardChild is the subprocess body: restore if a checkpoint exists (never
// retrain from scratch after a crash), feed the timeline from the restored
// attempt count on, and in kill mode SIGKILL the process right after the
// second attempt — past a commit, so the checkpoint is live, but before the
// rollback attempt.
func runGuardChild(t *testing.T, dir string, kill bool) {
	stub := &stubAdvisor{}
	tr, err := NewTrainer(stub, Config{Budget: 0.05, ModelDir: dir, CanaryCost: stateCanary(stub)})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := tr.TryRestore()
	if err != nil {
		t.Fatalf("child restore: %v", err)
	}
	if !restored {
		tr.Train(batch(t, 1))
	}
	for i := tr.Stats().Attempts; i < uint64(len(persistTimeline)); i++ {
		tr.Retrain(batch(t, persistTimeline[i]))
		if kill && i == 1 {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	}
}
