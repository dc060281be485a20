package bandit

import (
	"fmt"
	"math/rand"

	"repro/internal/advisor"
	"repro/internal/snap"
)

// snapKind namespaces DBA-bandit snapshots in the snap envelope.
const snapKind = "advisor.bandit"

// Snapshot implements advisor.Snapshotter. Unlike the deep advisors, the
// bandit's Retrain never resets state, so everything is captured: the ridge
// model (A, b), the arm set and contexts, the best/averaged parameters and
// the RNG stream position.
func (bd *Bandit) Snapshot() ([]byte, error) {
	var e snap.Encoder
	e.Int64(int64(bd.cfg.Variant))
	e.Int64(int64(bd.env.L()))
	bd.src.Encode(&e)
	e.Uint64(uint64(len(bd.a)))
	for _, row := range bd.a {
		e.Floats(row)
	}
	e.Floats(bd.b)
	e.Ints(bd.arms)
	e.Uint64(uint64(len(bd.contexts)))
	for _, x := range bd.contexts {
		e.Floats(x)
	}
	e.Floats(bd.bestTheta)
	e.Float64(bd.bestR)
	advisor.EncodeIndexes(&e, bd.bestConfig)
	e.Uint64(bd.bestSig)
	bd.avg.Encode(&e)
	return e.Seal(snapKind), nil
}

// Restore implements advisor.Snapshotter; a bad blob leaves the advisor
// untouched. Restoring the blob the advisor already holds only rewinds its
// RNG (advisor.Rewinder).
func (bd *Bandit) Restore(blob []byte) error {
	if src, ok := bd.restore.Rewind(blob); ok {
		bd.src, bd.rng = src, rand.New(src)
		return nil
	}
	dec, err := snap.Open(blob, snapKind)
	if err != nil {
		return err
	}
	variant, l := dec.Int64(), dec.Int64()
	if err := dec.Err(); err != nil {
		return err
	}
	if variant != int64(bd.cfg.Variant) || l != int64(bd.env.L()) {
		return fmt.Errorf("%w: bandit snapshot for variant=%d L=%d, advisor has %d/%d",
			snap.ErrKind, variant, l, bd.cfg.Variant, bd.env.L())
	}
	src := advisor.NewCountingSource(bd.cfg.Seed)
	if err := src.Decode(dec); err != nil {
		return err
	}
	an := dec.Uint64()
	if dec.Err() != nil {
		return dec.Err()
	}
	if an != ctxDim {
		return fmt.Errorf("%w: bandit Gram matrix is %d-dim, want %d", snap.ErrCorrupt, an, ctxDim)
	}
	a := make([][]float64, ctxDim)
	for i := range a {
		a[i] = dec.Floats()
		if len(a[i]) != ctxDim && dec.Err() == nil {
			return fmt.Errorf("%w: bandit Gram row %d length %d", snap.ErrCorrupt, i, len(a[i]))
		}
	}
	b := dec.Floats()
	arms := dec.Ints()
	cn := dec.Uint64()
	if dec.Err() != nil {
		return dec.Err()
	}
	if cn > uint64(dec.Remaining())/8 {
		return fmt.Errorf("%w: bandit context count %d", snap.ErrCorrupt, cn)
	}
	contexts := make([][]float64, 0, cn)
	for i := uint64(0); i < cn; i++ {
		x := dec.Floats()
		if len(x) != ctxDim && dec.Err() == nil {
			return fmt.Errorf("%w: bandit context %d length %d", snap.ErrCorrupt, i, len(x))
		}
		contexts = append(contexts, x)
	}
	if cn == 0 {
		contexts = nil
	}
	bestTheta := dec.Floats()
	bestR := dec.Float64()
	bestConfig, err := advisor.DecodeIndexes(dec)
	if err != nil {
		return err
	}
	bestSig := dec.Uint64()
	avg, err := advisor.DecodeParamAverager(dec)
	if err != nil {
		return err
	}
	if err := dec.Close(); err != nil {
		return err
	}
	if len(b) != ctxDim {
		return fmt.Errorf("%w: bandit b vector length %d", snap.ErrCorrupt, len(b))
	}
	for _, arm := range arms {
		if arm < 0 || arm >= bd.env.L() {
			return fmt.Errorf("%w: bandit arm %d outside action space", snap.ErrCorrupt, arm)
		}
	}
	if bestTheta != nil && len(bestTheta) != ctxDim {
		return fmt.Errorf("%w: bandit theta length %d", snap.ErrCorrupt, len(bestTheta))
	}
	bd.src, bd.rng = src, rand.New(src)
	bd.a, bd.b = a, b
	bd.arms, bd.contexts = arms, contexts
	bd.bestTheta, bd.bestR = bestTheta, bestR
	bd.bestConfig, bd.bestSig = bestConfig, bestSig
	bd.avg = avg
	bd.restore.Hold(blob, src)
	return nil
}

// RestorePath reports how the last successful Restore ran: "decode" or
// "rewind".
func (bd *Bandit) RestorePath() string { return bd.restore.Path() }
