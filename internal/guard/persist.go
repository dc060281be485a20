package guard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/snap"
)

// metaKind is the snap envelope kind for the guard's own checkpoint.
const metaKind = "guard.trainer"

// WriteFileAtomic persists blob at path crash-safely: write to a temp file
// in the same directory, fsync it, rename over the target, fsync the
// directory. A crash at any point leaves either the old file or the new one,
// never a torn mix — and a torn temp file is unreferenced garbage the snap
// CRC would reject anyway.
func WriteFileAtomic(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// fileBase turns an advisor name into a stable file stem.
func fileBase(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '_'
		}
		return r
	}, name)
}

// modelPath and metaPath locate the two checkpoint files.
func (t *Trainer) modelPath() string {
	return filepath.Join(t.cfg.ModelDir, fileBase(t.inner.Name())+".model")
}
func (t *Trainer) metaPath() string {
	return filepath.Join(t.cfg.ModelDir, fileBase(t.inner.Name())+".guard")
}

// persist writes the advisor snapshot and guard metadata. Called at commit
// time only: the snapshot is taken after the canary evaluation, so a resumed
// run continues from exactly the state an uninterrupted run would be in, and
// the guard state at a commit is always Closed with cleared counters — only
// the stats, anchor and quarantine need recording.
func (t *Trainer) persist() error {
	if err := os.MkdirAll(t.cfg.ModelDir, 0o755); err != nil {
		return err
	}
	model, err := t.snapr.Snapshot()
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(t.modelPath(), model); err != nil {
		return err
	}

	var e snap.Encoder
	e.Uint64(t.stats.Attempts)
	e.Uint64(t.stats.Commits)
	e.Uint64(t.stats.Rollbacks)
	e.Uint64(t.stats.Frozen)
	e.Uint64(t.stats.Screened)
	e.Uint64(t.stats.PartialScreens)
	e.Uint64(t.stats.Quarantined)
	e.Uint64(t.stats.Trips)
	e.Float64(t.stats.LastCanaryAD)
	e.Bool(t.anchored)
	e.Float64(t.canaryBase)
	t.quarantine.encode(&e)
	return WriteFileAtomic(t.metaPath(), e.Seal(metaKind))
}

// Persist writes the current model snapshot and guard metadata to ModelDir
// (a no-op without one). Commits persist automatically; this exported hook
// is for the serving daemon's startup (so a just-trained model survives a
// restart that happens before the first commit) and graceful drain.
func (t *Trainer) Persist() error {
	if t.cfg.ModelDir == "" {
		return nil
	}
	return t.persist()
}

// TryRestore resumes from the last committed checkpoint in ModelDir, if one
// exists and is intact; it reports whether it restored. Every later Retrain
// call is a new update attempt on the restored state: a daemon's post-restart
// traffic is new work. A caller re-running a recorded timeline resumes it by
// feeding the batches from Stats().Attempts on — the attempts the checkpoint
// already covers — which reproduces the uninterrupted run byte-exactly.
//
// A missing checkpoint is a clean miss (false, nil); a damaged one is an
// error, so silent divergence from a torn file is impossible.
func (t *Trainer) TryRestore() (bool, error) {
	if t.cfg.ModelDir == "" {
		return false, nil
	}
	meta, err := os.ReadFile(t.metaPath())
	if os.IsNotExist(err) {
		return false, nil
	} else if err != nil {
		return false, err
	}
	model, err := os.ReadFile(t.modelPath())
	if os.IsNotExist(err) {
		return false, nil
	} else if err != nil {
		return false, err
	}

	dec, err := snap.Open(meta, metaKind)
	if err != nil {
		return false, fmt.Errorf("guard: checkpoint metadata: %w", err)
	}
	var st Stats
	st.Attempts = dec.Uint64()
	st.Commits = dec.Uint64()
	st.Rollbacks = dec.Uint64()
	st.Frozen = dec.Uint64()
	st.Screened = dec.Uint64()
	st.PartialScreens = dec.Uint64()
	st.Quarantined = dec.Uint64()
	st.Trips = dec.Uint64()
	st.LastCanaryAD = dec.Float64()
	anchored := dec.Bool()
	canaryBase := dec.Float64()
	q, err := decodeQuarantine(dec, quarantineCap)
	if err != nil {
		return false, fmt.Errorf("guard: checkpoint metadata: %w", err)
	}
	if err := dec.Close(); err != nil {
		return false, fmt.Errorf("guard: checkpoint metadata: %w", err)
	}

	if err := t.snapr.Restore(model); err != nil {
		return false, fmt.Errorf("guard: checkpoint model: %w", err)
	}
	t.stats = st
	t.anchored = anchored
	t.canaryBase = canaryBase
	t.quarantine = q
	t.state = Closed
	t.consec = 0
	t.frozenLeft = 0
	return true, nil
}

// encode writes the quarantine's full state. The entries' sources follow
// the entries as one trailing list, so a checkpoint written before sources
// were persisted still decodes (with empty sources); that is why the
// quarantine must stay the last field of the guard metadata.
func (q *Quarantine) encode(e *snap.Encoder) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e.Uint64(q.next)
	e.Uint64(q.evicted)
	e.Uint64(uint64(len(q.entries)))
	sources := make([]string, len(q.entries))
	for i, en := range q.entries {
		e.String(en.Query)
		e.String(en.Reason)
		e.Uint64(en.Seq)
		sources[i] = en.Source
	}
	e.Strings(sources)
}

// decodeQuarantine reads a quarantine written by encode, bounded by cap.
func decodeQuarantine(d *snap.Decoder, cap int) (*Quarantine, error) {
	q := NewQuarantine(cap)
	q.next = d.Uint64()
	q.evicted = d.Uint64()
	n := d.Uint64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining())/8 || n > uint64(q.cap) {
		return nil, fmt.Errorf("%w: quarantine with %d entries (cap %d)", snap.ErrCorrupt, n, q.cap)
	}
	for i := uint64(0); i < n; i++ {
		en := Entry{Query: d.String(), Reason: d.String(), Seq: d.Uint64()}
		if err := d.Err(); err != nil {
			return nil, err
		}
		q.entries = append(q.entries, en)
		q.present[en.Query] = true
	}
	if d.Remaining() == 0 {
		return q, nil // written before sources were persisted
	}
	sources := d.Strings()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(sources) != len(q.entries) {
		return nil, fmt.Errorf("%w: %d quarantine sources for %d entries", snap.ErrCorrupt, len(sources), len(q.entries))
	}
	for i := range q.entries {
		q.entries[i].Source = sources[i]
	}
	return q, nil
}
