package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/obs"
)

var (
	journalHits    = obs.GetCounter("experiments_journal_hits_total")
	journalRecords = obs.GetCounter("experiments_journal_records_total")
)

// journalEntry is one line of the checkpoint file: a completed cell's key
// and its JSON-encoded result.
type journalEntry struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
}

// Journal is a crash-safe checkpoint of completed experiment cells: an
// append-only JSONL file, fsynced per record, reloaded on open so an
// interrupted grid resumes by skipping every cell it already finished.
// Because cell results are pure values of their (Seed, run, config) inputs
// and float64 survives the JSON round trip exactly, a resumed run's output
// is byte-identical to an uninterrupted one.
//
// Record is safe for concurrent use by pool workers; drivers must only
// record a cell after confirming its context was not cancelled, so a
// truncated cell can never be mistaken for a completed one.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	done map[string]json.RawMessage
}

// OpenJournal opens (or creates) the checkpoint file and loads every
// previously completed cell. A trailing partial line — the signature of a
// crash mid-write — is ignored, not an error, and cut off the file, so the
// next record starts a line of its own.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: open journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: read journal: %w", err)
	}
	j := &Journal{f: f, done: make(map[string]json.RawMessage)}
	end := bytes.LastIndexByte(data, '\n') + 1
	for _, line := range bytes.Split(data[:end], []byte{'\n'}) {
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue // the empty tail after the last newline, or a damaged line
		}
		j.done[e.Key] = e.Val
	}
	if err := f.Truncate(int64(end)); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: truncate journal: %w", err)
	}
	if _, err := f.Seek(int64(end), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Lookup reports whether key was already completed, decoding its recorded
// result into out when it was.
func (j *Journal) Lookup(key string, out any) bool {
	j.mu.Lock()
	raw, ok := j.done[key]
	j.mu.Unlock()
	if !ok {
		return false
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false // recorded under a different schema: recompute
	}
	journalHits.Inc()
	return true
}

// Record appends one completed cell and fsyncs, so the record survives a
// kill at any later instant.
func (j *Journal) Record(key string, val any) error {
	raw, err := json.Marshal(val)
	if err != nil {
		return err
	}
	line, err := json.Marshal(journalEntry{Key: key, Val: raw})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("experiments: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("experiments: journal sync: %w", err)
	}
	j.done[key] = raw
	journalRecords.Inc()
	return nil
}

// Len returns the number of completed cells on record.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Close closes the underlying file; the journal must not be used after.
func (j *Journal) Close() error { return j.f.Close() }

// Journaled runs compute for one cell unless the setup's journal already
// holds its result under s.CellKey(cell); fresh results are recorded before
// being returned. With no journal configured it is a plain call. It is the
// one journaling path: every driver and cmd/pipa's runs go through it.
func Journaled[T any](s *Setup, cell string, compute func() (T, error)) (T, error) {
	key := s.CellKey(cell)
	var out T
	if s.Journal != nil && s.Journal.Lookup(key, &out) {
		return out, nil
	}
	out, err := compute()
	if err != nil {
		return out, err
	}
	if s.Journal != nil {
		if err := s.Journal.Record(key, out); err != nil {
			return out, err
		}
	}
	return out, nil
}
