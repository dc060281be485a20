package drlindex

import (
	"fmt"
	"math/rand"

	"repro/internal/advisor"
	"repro/internal/nn"
	"repro/internal/snap"
)

// snapKind namespaces DRLindex snapshots in the snap envelope.
const snapKind = "advisor.drlindex"

// Snapshot implements advisor.Snapshotter. Like DQN, the replay buffer is
// excluded: Retrain clears it on entry and Recommend never reads it.
func (d *DRLindex) Snapshot() ([]byte, error) {
	var e snap.Encoder
	e.Int64(int64(d.cfg.Variant))
	e.Int64(int64(d.env.L()))
	e.Int64(int64(d.cfg.Hidden))
	d.src.Encode(&e)
	d.net.Encode(&e)
	d.target.Encode(&e)
	e.Floats(d.lastPresence)
	advisor.EncodeIndexes(&e, d.bestConfig)
	e.Uint64(d.bestSig)
	return e.Seal(snapKind), nil
}

// Restore implements advisor.Snapshotter; a bad blob leaves the advisor
// untouched. Restoring the blob the advisor already holds only rewinds its
// RNG (advisor.Rewinder).
func (d *DRLindex) Restore(blob []byte) error {
	if src, ok := d.restore.Rewind(blob); ok {
		d.src, d.rng = src, rand.New(src)
		return nil
	}
	dec, err := snap.Open(blob, snapKind)
	if err != nil {
		return err
	}
	variant, l, hidden := dec.Int64(), dec.Int64(), dec.Int64()
	if err := dec.Err(); err != nil {
		return err
	}
	if variant != int64(d.cfg.Variant) || l != int64(d.env.L()) || hidden != int64(d.cfg.Hidden) {
		return fmt.Errorf("%w: drlindex snapshot for variant=%d L=%d hidden=%d, advisor has %d/%d/%d",
			snap.ErrKind, variant, l, hidden, d.cfg.Variant, d.env.L(), d.cfg.Hidden)
	}
	src := advisor.NewCountingSource(d.cfg.Seed)
	if err := src.Decode(dec); err != nil {
		return err
	}
	net, err := nn.DecodeMLP(dec)
	if err != nil {
		return err
	}
	target, err := nn.DecodeMLP(dec)
	if err != nil {
		return err
	}
	presence := dec.Floats()
	best, err := advisor.DecodeIndexes(dec)
	if err != nil {
		return err
	}
	sig := dec.Uint64()
	if err := dec.Close(); err != nil {
		return err
	}
	stateDim := 2 * d.env.L()
	if net.InputSize() != stateDim || net.OutputSize() != d.env.L() ||
		target.InputSize() != stateDim || target.OutputSize() != d.env.L() {
		return fmt.Errorf("%w: drlindex network shape mismatch", snap.ErrCorrupt)
	}
	if presence != nil && len(presence) != d.env.L() {
		return fmt.Errorf("%w: drlindex presence vector length %d", snap.ErrCorrupt, len(presence))
	}
	d.src, d.rng = src, rand.New(src)
	d.net, d.target = net, target
	d.replay = d.replay[:0]
	d.lastPresence = presence
	d.bestConfig, d.bestSig = best, sig
	d.restore.Hold(blob, src)
	return nil
}

// RestorePath reports how the last successful Restore ran: "decode" or
// "rewind".
func (d *DRLindex) RestorePath() string { return d.restore.Path() }
