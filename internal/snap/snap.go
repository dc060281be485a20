// Package snap is the versioned, checksummed binary codec behind advisor
// snapshots (DESIGN.md §9). A snapshot is a sealed envelope:
//
//	magic "PSNP" | version u16 | kind length u16 | kind bytes | payload | crc32
//
// The CRC covers everything before it, so any truncation or bit flip —
// including a torn file from a crash mid-write — is rejected with ErrCorrupt
// before a single payload byte is interpreted. The kind string namespaces
// snapshots per producer ("advisor.dqn", "guard.trainer", …) so a blob can
// never be restored into the wrong consumer, and the version gates format
// evolution.
//
// The Decoder is allocation-safe against adversarial input: every
// length-prefixed read is bounded by the bytes actually remaining, so a
// mutated length field yields ErrCorrupt instead of a huge allocation or a
// panic. That property is pinned by the FuzzSnapshotRestore fuzz target.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Version is the current envelope version written by Seal.
const Version = 1

var magic = [4]byte{'P', 'S', 'N', 'P'}

// Typed errors let callers distinguish a damaged blob from a mismatched one.
var (
	// ErrCorrupt marks a truncated, torn or bit-flipped snapshot.
	ErrCorrupt = errors.New("snap: corrupt or truncated snapshot")
	// ErrVersion marks an envelope written by an incompatible codec version.
	ErrVersion = errors.New("snap: unsupported snapshot version")
	// ErrKind marks a structurally valid snapshot of the wrong kind.
	ErrKind = errors.New("snap: snapshot kind mismatch")
)

// Encoder accumulates a snapshot payload; Seal wraps it in the envelope.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Uint64 appends v little-endian.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int64 appends v as its two's-complement bits.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Float64 appends v's IEEE-754 bits, so every value — including NaN payloads
// and signed zeros — round-trips exactly.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bool appends v as one byte.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.Uint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Grow makes room for n more bytes, so a producer that knows its size
// fills one buffer instead of doubling into it.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Floats appends a length-prefixed []float64, growing the buffer once.
func (e *Encoder) Floats(v []float64) {
	e.Uint64(uint64(len(v)))
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(v))[:off+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(e.buf[off+8*i:], math.Float64bits(x))
	}
}

// Ints appends a length-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.Uint64(uint64(len(v)))
	for _, x := range v {
		e.Int64(int64(x))
	}
}

// Bools appends a length-prefixed []bool.
func (e *Encoder) Bools(v []bool) {
	e.Uint64(uint64(len(v)))
	for _, x := range v {
		e.Bool(x)
	}
}

// Strings appends a length-prefixed []string.
func (e *Encoder) Strings(v []string) {
	e.Uint64(uint64(len(v)))
	for _, s := range v {
		e.String(s)
	}
}

// Seal wraps the accumulated payload in the envelope for the given kind and
// returns the complete snapshot blob. The encoder may be reused afterwards
// only by discarding it; Seal does not reset it.
func (e *Encoder) Seal(kind string) []byte {
	out := make([]byte, 0, len(e.buf)+len(kind)+12)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(kind)))
	out = append(out, kind...)
	out = append(out, e.buf...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// Decoder reads a sealed payload. Errors are sticky: after the first bad
// read every subsequent read returns the zero value, and Err reports the
// failure, so decode paths can read a whole struct and check once.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// Open verifies the envelope (magic, version, kind, CRC) and returns a
// decoder positioned at the start of the payload.
func Open(blob []byte, kind string) (*Decoder, error) {
	if len(blob) < 12 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(blob))
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if [4]byte(body[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(body[4:6]); v != Version {
		return nil, fmt.Errorf("%w: version %d", ErrVersion, v)
	}
	kn := int(binary.LittleEndian.Uint16(body[6:8]))
	if 8+kn > len(body) {
		return nil, fmt.Errorf("%w: kind overruns payload", ErrCorrupt)
	}
	if got := string(body[8 : 8+kn]); got != kind {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrKind, got, kind)
	}
	return &Decoder{buf: body[8+kn:]}, nil
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// fail records the sticky error.
func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short read at %s", ErrCorrupt, what)
	}
}

// take returns the next n bytes, or nil after recording an error.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil || n < 0 || d.Remaining() < n {
		d.fail(what)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// Uint64 reads one u64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8, "uint64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads one i64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Float64 reads one float64.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bool reads one bool; any nonzero byte is true.
func (d *Decoder) Bool() bool {
	b := d.take(1, "bool")
	return b != nil && b[0] != 0
}

// length reads a length prefix whose elements occupy elemSize bytes each,
// bounded by the remaining payload so a corrupted length cannot trigger a
// huge allocation.
func (d *Decoder) length(elemSize int, what string) int {
	n := d.Uint64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining())/uint64(elemSize) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice (copied).
func (d *Decoder) Bytes() []byte {
	n := d.length(1, "bytes")
	b := d.take(n, "bytes")
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.length(1, "string")
	b := d.take(n, "string")
	return string(b)
}

// Floats reads a length-prefixed []float64; a zero length yields nil.
func (d *Decoder) Floats() []float64 {
	n := d.length(8, "floats")
	if n == 0 {
		return nil
	}
	b := d.take(8*n, "floats")
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Ints reads a length-prefixed []int; a zero length yields nil.
func (d *Decoder) Ints() []int {
	n := d.length(8, "ints")
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Int64())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Bools reads a length-prefixed []bool; a zero length yields nil.
func (d *Decoder) Bools() []bool {
	n := d.length(1, "bools")
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Strings reads a length-prefixed []string; a zero length yields nil.
func (d *Decoder) Strings() []string {
	n := d.length(8, "strings") // each string costs at least its 8-byte prefix
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Close verifies the payload was consumed exactly: trailing garbage means
// the blob was produced by a different schema and is rejected.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	return nil
}
