package advisor

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/snap"
)

// Restore paths: a full decode of the blob, or a rewind of an advisor that
// already holds it (see Rewinder).
var (
	restoreDecodes = obs.GetCounter(obs.Name("advisor_restores_total", "path", "decode"))
	restoreRewinds = obs.GetCounter(obs.Name("advisor_restores_total", "path", "rewind"))
)

// Snapshotter is the optional capability guarded training builds on: an
// advisor that can serialize its complete mutable state and later restore it
// byte-exactly. All five paper advisors implement it. Restore must reject
// corrupted, truncated or wrong-kind blobs with an error wrapping one of the
// snap typed errors, leaving the advisor's current state untouched.
//
// Restore may keep blob by reference (see Rewinder): restoring the same blob
// again then only rewinds the RNG. Callers must not modify a blob after
// passing it to Restore.
type Snapshotter interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// Snapshottable is an advisor whose complete state can be saved and restored
// byte-exactly — the contract transactional updates (guard.Trainer) and
// robust retraining (defense/trim's scratch fits) build on.
type Snapshottable interface {
	Advisor
	Snapshotter
}

// CountingSource is a math/rand Source that counts how many values were
// drawn, making the RNG itself snapshottable: its state is (seed, draws), and
// Restore replays the draws from a reseeded stream. Replay cost is linear in
// the draw count, which stays small at experiment scale (millions/s).
//
// It deliberately implements only Source, not Source64: rand.Rand derives
// every method the advisors use (Intn, Float64, NormFloat64, Perm, Shuffle)
// from Int63, so one counter captures all consumption, and the produced
// stream is identical to rand.New(rand.NewSource(seed)) for those methods.
type CountingSource struct {
	seed  int64
	draws uint64
	src   rand.Source
}

// NewCountingSource returns a counting source seeded like rand.NewSource.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{seed: seed, src: rand.NewSource(seed)}
}

// Int63 draws the next value, counting it.
func (s *CountingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Seed reseeds and resets the draw counter.
func (s *CountingSource) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.src.Seed(seed)
}

// State returns the seed and the number of values drawn since it was set.
func (s *CountingSource) State() (seed int64, draws uint64) { return s.seed, s.draws }

// Encode writes the source state.
func (s *CountingSource) Encode(e *snap.Encoder) {
	e.Int64(s.seed)
	e.Uint64(s.draws)
}

// Clone returns an independent source at the same (seed, draws) position. It
// copies the wrapped math/rand generator's state by value instead of
// replaying the draws, so its cost does not grow with the stream. The copy is
// deep because that state is a fixed-size array with no pointers.
func (s *CountingSource) Clone() *CountingSource {
	v := reflect.ValueOf(s.src).Elem()
	cp := reflect.New(v.Type())
	cp.Elem().Set(v)
	return &CountingSource{seed: s.seed, draws: s.draws, src: cp.Interface().(rand.Source)}
}

// Decode restores the source from an encoded state: reseed, then replay the
// recorded number of draws so the next value matches what the snapshotted
// source would have produced.
func (s *CountingSource) Decode(d *snap.Decoder) error {
	seed := d.Int64()
	draws := d.Uint64()
	if err := d.Err(); err != nil {
		return err
	}
	s.Seed(seed)
	for i := uint64(0); i < draws; i++ {
		s.src.Int63()
	}
	s.draws = draws
	return nil
}

// Rewinder makes Restore of a blob the advisor already holds a rewind
// instead of a decode. It remembers the blob last decoded in full and a clone
// of the RNG taken right after that decode. Until the advisor changes state
// other than by RNG draws, re-installing a fresh clone of that RNG restores
// the blob exactly; Train, Retrain and any other such mutation must call
// Drop. The blob is kept by reference, which is why Snapshotter forbids
// modifying it after Restore. The zero value holds nothing.
type Rewinder struct {
	held []byte
	src  *CountingSource
	path string
}

// Rewind reports whether blob is the held blob and, if so, returns a fresh
// clone of the RNG saved at decode time (nil for an advisor without one).
// Comparing the same slice is O(1).
func (r *Rewinder) Rewind(blob []byte) (*CountingSource, bool) {
	if r.held == nil || !bytes.Equal(blob, r.held) {
		return nil, false
	}
	restoreRewinds.Inc()
	r.path = "rewind"
	if r.src == nil {
		return nil, true
	}
	return r.src.Clone(), true
}

// Hold records a successful full decode of blob that left the advisor's RNG
// at src (nil for an advisor without one).
func (r *Rewinder) Hold(blob []byte, src *CountingSource) {
	restoreDecodes.Inc()
	r.path = "decode"
	r.held, r.src = blob, nil
	if src != nil {
		r.src = src.Clone()
	}
}

// Drop forgets the held blob, so the next Restore decodes in full.
func (r *Rewinder) Drop() { r.held, r.src = nil, nil }

// Path reports how the last successful Restore ran: "decode", "rewind", or
// "" before the first.
func (r *Rewinder) Path() string { return r.path }

// Encode writes the averager's ring buffer, including empty slots.
func (a *ParamAverager) Encode(e *snap.Encoder) {
	e.Int64(int64(a.window))
	e.Int64(int64(a.next))
	e.Int64(int64(a.filled))
	for _, p := range a.buf {
		e.Floats(p)
	}
}

// DecodeParamAverager reads an averager written by Encode.
func DecodeParamAverager(d *snap.Decoder) (*ParamAverager, error) {
	a := &ParamAverager{
		window: int(d.Int64()),
		next:   int(d.Int64()),
		filled: int(d.Int64()),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if a.window < 1 || a.window > 1<<20 || a.next < 0 || a.next >= a.window ||
		a.filled < 0 || a.filled > a.window {
		return nil, fmt.Errorf("%w: param averager window=%d next=%d filled=%d",
			snap.ErrCorrupt, a.window, a.next, a.filled)
	}
	a.buf = make([][]float64, a.window)
	for i := range a.buf {
		a.buf[i] = d.Floats()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// EncodeIndexes writes an index configuration (e.g. a cached best config).
func EncodeIndexes(e *snap.Encoder, idxs []cost.Index) {
	e.Uint64(uint64(len(idxs)))
	for _, ix := range idxs {
		e.Strings(ix.Columns)
	}
}

// DecodeIndexes reads a configuration written by EncodeIndexes, validating
// that every index is non-empty with qualified columns (cost.NewIndex panics
// on malformed input, so validation happens here instead).
func DecodeIndexes(d *snap.Decoder) ([]cost.Index, error) {
	n := d.Uint64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining())/8 {
		return nil, fmt.Errorf("%w: index list length %d", snap.ErrCorrupt, n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]cost.Index, 0, n)
	for i := uint64(0); i < n; i++ {
		cols := d.Strings()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(cols) == 0 {
			return nil, fmt.Errorf("%w: index %d with no columns", snap.ErrCorrupt, i)
		}
		for _, c := range cols {
			if !strings.Contains(c, ".") {
				return nil, fmt.Errorf("%w: unqualified index column %q", snap.ErrCorrupt, c)
			}
		}
		out = append(out, cost.Index{Columns: cols})
	}
	return out, nil
}
