package swirl

import (
	"fmt"
	"math/rand"

	"repro/internal/advisor"
	"repro/internal/nn"
	"repro/internal/snap"
)

// snapKind namespaces SWIRL snapshots in the snap envelope.
const snapKind = "advisor.swirl"

// Snapshot implements advisor.Snapshotter: actor and critic networks, the
// grown invalid-action mask, the cached features and the RNG position.
func (s *SWIRL) Snapshot() ([]byte, error) {
	var e snap.Encoder
	e.Int64(int64(s.cfg.Variant))
	e.Int64(int64(s.env.L()))
	e.Int64(int64(s.cfg.Hidden))
	s.src.Encode(&e)
	s.actor.Encode(&e)
	s.critic.Encode(&e)
	e.Bools(s.trainMask)
	e.Floats(s.lastFeatures)
	return e.Seal(snapKind), nil
}

// Restore implements advisor.Snapshotter; a bad blob leaves the advisor
// untouched. Restoring the blob the advisor already holds only rewinds its
// RNG (advisor.Rewinder).
func (s *SWIRL) Restore(blob []byte) error {
	if src, ok := s.restore.Rewind(blob); ok {
		s.src, s.rng = src, rand.New(src)
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
	if variant != int64(s.cfg.Variant) || l != int64(s.env.L()) || hidden != int64(s.cfg.Hidden) {
		return fmt.Errorf("%w: swirl snapshot for variant=%d L=%d hidden=%d, advisor has %d/%d/%d",
			snap.ErrKind, variant, l, hidden, s.cfg.Variant, s.env.L(), s.cfg.Hidden)
	}
	src := advisor.NewCountingSource(s.cfg.Seed)
	if err := src.Decode(dec); err != nil {
		return err
	}
	actor, err := nn.DecodeMLP(dec)
	if err != nil {
		return err
	}
	critic, err := nn.DecodeMLP(dec)
	if err != nil {
		return err
	}
	mask := dec.Bools()
	feats := dec.Floats()
	if err := dec.Close(); err != nil {
		return err
	}
	stateDim := s.env.L()*advisor.FeatureDim + s.env.L() + 1
	if actor.InputSize() != stateDim || actor.OutputSize() != s.env.L() ||
		critic.InputSize() != stateDim || critic.OutputSize() != 1 {
		return fmt.Errorf("%w: swirl network shape mismatch", snap.ErrCorrupt)
	}
	// trainMask is always length L from reset(); validMask indexes it blindly.
	if len(mask) != s.env.L() {
		return fmt.Errorf("%w: swirl train mask length %d", snap.ErrCorrupt, len(mask))
	}
	if feats != nil && len(feats) != s.env.L()*advisor.FeatureDim {
		return fmt.Errorf("%w: swirl feature vector length %d", snap.ErrCorrupt, len(feats))
	}
	s.src, s.rng = src, rand.New(src)
	s.actor, s.critic = actor, critic
	s.trainMask = mask
	s.lastFeatures = feats
	s.restore.Hold(blob, src)
	return nil
}

// RestorePath reports how the last successful Restore ran: "decode" or
// "rewind".
func (s *SWIRL) RestorePath() string { return s.restore.Path() }
