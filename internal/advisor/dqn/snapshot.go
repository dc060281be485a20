package dqn

import (
	"fmt"
	"math/rand"

	"repro/internal/advisor"
	"repro/internal/nn"
	"repro/internal/snap"
)

// Snapshot implements advisor.Snapshotter. Each kind seals under its own
// envelope kind, and DRLindex, which has no candidate filter, omits the mask.
// The replay buffer is deliberately excluded: Retrain clears it on entry and
// Recommend never reads it, so it is not observable across the snapshot
// boundary — a restored advisor recommends and retrains exactly like the
// original.
func (d *DQN) Snapshot() ([]byte, error) {
	var e snap.Encoder
	e.Int64(int64(d.cfg.Variant))
	e.Int64(int64(d.env.L()))
	e.Int64(int64(d.cfg.Hidden))
	d.src.Encode(&e)
	d.net.Encode(&e)
	d.target.Encode(&e)
	e.Floats(d.lastFeatures)
	if !d.kind.presence {
		e.Bools(d.lastMask)
	}
	advisor.EncodeIndexes(&e, d.bestConfig)
	e.Uint64(d.bestSig)
	return e.Seal(d.kind.snapKind), nil
}

// Restore implements advisor.Snapshotter. All decoding happens into
// temporaries and is committed only after full validation, so a bad blob
// leaves the advisor untouched. Restoring the blob the advisor already holds
// only rewinds its RNG (advisor.Rewinder).
func (d *DQN) Restore(blob []byte) error {
	if src, ok := d.restore.Rewind(blob); ok {
		d.src, d.rng = src, rand.New(src)
		return nil
	}
	dec, err := snap.Open(blob, d.kind.snapKind)
	if err != nil {
		return err
	}
	variant, l, hidden := dec.Int64(), dec.Int64(), dec.Int64()
	if err := dec.Err(); err != nil {
		return err
	}
	if variant != int64(d.cfg.Variant) || l != int64(d.env.L()) || hidden != int64(d.cfg.Hidden) {
		return fmt.Errorf("%w: %s snapshot for variant=%d L=%d hidden=%d, advisor has %d/%d/%d",
			snap.ErrKind, d.kind.name, variant, l, hidden, d.cfg.Variant, d.env.L(), d.cfg.Hidden)
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
	feats := dec.Floats()
	var mask []bool
	if !d.kind.presence {
		mask = dec.Bools()
	}
	best, err := advisor.DecodeIndexes(dec)
	if err != nil {
		return err
	}
	sig := dec.Uint64()
	if err := dec.Close(); err != nil {
		return err
	}
	stateDim := d.featDim() + d.env.L()
	if net.InputSize() != stateDim || net.OutputSize() != d.env.L() ||
		target.InputSize() != stateDim || target.OutputSize() != d.env.L() {
		return fmt.Errorf("%w: %s network shape mismatch", snap.ErrCorrupt, d.kind.name)
	}
	if feats != nil && len(feats) != d.featDim() {
		return fmt.Errorf("%w: %s state vector length %d", snap.ErrCorrupt, d.kind.name, len(feats))
	}
	if mask != nil && len(mask) != d.env.L() {
		return fmt.Errorf("%w: %s candidate mask length %d", snap.ErrCorrupt, d.kind.name, len(mask))
	}
	d.src, d.rng = src, rand.New(src)
	d.net, d.target = net, target
	d.replay = d.replay[:0]
	d.lastFeatures, d.lastMask = feats, mask
	d.bestConfig, d.bestSig = best, sig
	d.restore.Hold(blob, src)
	return nil
}

// RestorePath reports how the last successful Restore ran: "decode" or
// "rewind".
func (d *DQN) RestorePath() string { return d.restore.Path() }
