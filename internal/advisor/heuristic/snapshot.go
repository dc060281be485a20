package heuristic

import (
	"fmt"

	"repro/internal/snap"
)

// snapKind namespaces heuristic snapshots in the snap envelope.
const snapKind = "advisor.heuristic"

// Snapshot implements advisor.Snapshotter. The heuristic is stateless; the
// snapshot is just a fingerprint of its construction parameters so a restore
// into a differently-configured instance is caught.
func (h *Heuristic) Snapshot() ([]byte, error) {
	var e snap.Encoder
	e.Int64(int64(h.budget))
	e.Bool(h.wideCands)
	return e.Seal(snapKind), nil
}

// Restore implements advisor.Snapshotter. The heuristic has no RNG, so
// restoring the blob it already holds only skips the decode.
func (h *Heuristic) Restore(blob []byte) error {
	if _, ok := h.restore.Rewind(blob); ok {
		return nil
	}
	dec, err := snap.Open(blob, snapKind)
	if err != nil {
		return err
	}
	budget := dec.Int64()
	wide := dec.Bool()
	if err := dec.Close(); err != nil {
		return err
	}
	if budget != int64(h.budget) || wide != h.wideCands {
		return fmt.Errorf("%w: heuristic snapshot for budget=%d wide=%v, advisor has %d/%v",
			snap.ErrKind, budget, wide, h.budget, h.wideCands)
	}
	h.restore.Hold(blob, nil)
	return nil
}

// RestorePath reports how the last successful Restore ran: "decode" or
// "rewind".
func (h *Heuristic) RestorePath() string { return h.restore.Path() }
