// Checkpoint serialization for the learner: the state section of the
// engine's checkpoint. The configuration block travels in the engine's
// options block and holds fixed values, since the hyper-parameters are
// constants; the reader checks them. The state codec carries
// everything else — weights, vocabulary, per-source features and the
// RNG/step counters — so a restored learner continues bit-identically.
//
// Writers up to format v4's first releases also kept a sliding window
// of per-epoch evidence: a window length in the config and, in the
// state, a ring of that many slots, its position and the per-source
// window sums. The learner now trains on the engine's own mass, so the
// writer emits that layout in its cumulative shape (length 0, no
// slots, position 0, sums of zeros: an older binary still restores
// the file), and the reader checks an old file's ring and drops it.
package online

import (
	"errors"
	"fmt"

	"slimfast/internal/wire"
)

// EncodeConfig writes the learner-config block: the anchor accuracy
// InitAccuracy, then the hyper-parameter constants, with the always-on
// intercept as true and the window length as 0. The slot order is the
// format contract, mirrored by DecodeConfig.
func EncodeConfig(w *wire.Writer) {
	w.Float64(InitAccuracy)
	w.Float64(priorStrength)
	w.Int(0) // window length
	w.Int(fitSteps)
	w.Int(batchSize)
	w.Float64(learningRate)
	w.Float64(rateDecay)
	w.Float64(l2)
	w.Bool(true) // intercept
	w.Int64(shuffleSeed)
}

// DecodeConfig reads the block EncodeConfig writes and fails when a
// slot differs from what EncodeConfig would write: no
// binary ever wrote other values, and this learner could not honour
// them. The window length is the exception: files written while the
// learner kept a window carry its length, returned as ring, the number
// of ring slots DecodeState must find.
func DecodeConfig(r *wire.Reader) (ring int, err error) {
	anchor := r.Float64()
	prior := r.Float64()
	ring = r.Int()
	steps := r.Int()
	batch := r.Int()
	rate := r.Float64()
	decay := r.Float64()
	penalty := r.Float64()
	intercept := r.Bool()
	seed := r.Int64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if anchor != InitAccuracy || prior != priorStrength || steps != fitSteps || batch != batchSize ||
		rate != learningRate || decay != rateDecay || penalty != l2 || !intercept || seed != shuffleSeed {
		return 0, fmt.Errorf("online: learner config (%v, %v, %d, %d, %v, %v, %v, %v, %d) is not this learner's",
			anchor, prior, steps, batch, rate, decay, penalty, intercept, seed)
	}
	return ring, nil
}

// EncodeState writes the learner's mutable state. Call on a quiescent
// learner (or a Clone taken under the engine's refresh lock).
func (l *Learner) EncodeState(w *wire.Writer) {
	w.Strings(l.featNames)
	w.Float64s(l.w)
	w.Uint32(uint32(len(l.srcFeats)))
	for _, fs := range l.srcFeats {
		w.Int32s(fs)
	}
	zeros := make([]float64, len(l.srcFeats))
	w.Uint32(0) // ring slots
	w.Int(0)    // ring position
	w.Float64s(zeros)
	w.Float64s(zeros)
	w.Int64(l.epochs)
	w.Int64(l.step)
}

// maxStateSlots bounds counts read before the stream checksum has
// been verified, so a corrupted length cannot drive a large
// allocation (the grow-as-data-arrives wire decoding bounds the rest).
const maxStateSlots = 1 << 28

// DecodeState reads state written by EncodeState into the (freshly
// constructed) learner, validating structural invariants so a
// corrupted checkpoint fails here rather than panicking at the next
// refresh. ring is the window length DecodeConfig returned; an older
// file's window is checked and dropped. Wire-level errors surface
// through the reader's sticky error; structural violations return a
// descriptive error.
func (l *Learner) DecodeState(r *wire.Reader, ring int) error {
	l.featNames = r.Strings()
	l.w = r.Float64s()
	nSrc := int(r.Uint32())
	if err := r.Err(); err != nil {
		return err
	}
	if nSrc > maxStateSlots {
		return fmt.Errorf("online: state declares %d sources", nSrc)
	}
	if len(l.w) != 1+len(l.featNames) {
		return fmt.Errorf("online: %d weights for %d features", len(l.w), len(l.featNames))
	}
	l.featIdx = make(map[string]int, len(l.featNames))
	for k, name := range l.featNames {
		if _, dup := l.featIdx[name]; dup {
			return fmt.Errorf("online: duplicate feature label %q", name)
		}
		l.featIdx[name] = k
	}
	l.srcFeats = l.srcFeats[:0]
	for s := 0; s < nSrc; s++ {
		if err := r.Err(); err != nil {
			return err
		}
		fs := r.Int32s()
		for _, f := range fs {
			if int(f) < 0 || int(f) >= len(l.featNames) {
				return fmt.Errorf("online: source %d references feature id %d of %d", s, f, len(l.featNames))
			}
		}
		l.srcFeats = append(l.srcFeats, fs)
	}
	nRing := int(r.Uint32())
	if err := r.Err(); err != nil {
		return err
	}
	if nRing != ring {
		return fmt.Errorf("online: state has %d ring slots, config says %d", nRing, ring)
	}
	for i := 0; i < nRing; i++ {
		if err := r.Err(); err != nil {
			return err
		}
		a := r.Float64s()
		t := r.Float64s()
		if len(a) != len(t) {
			return fmt.Errorf("online: ring slot %d is ragged: %d vs %d", i, len(a), len(t))
		}
		if len(a) > nSrc {
			return fmt.Errorf("online: ring slot %d covers %d sources, table has %d", i, len(a), nSrc)
		}
	}
	ringPos := r.Int()
	winAgree := r.Float64s()
	winTotal := r.Float64s()
	l.epochs = r.Int64()
	l.step = r.Int64()
	if err := r.Err(); err != nil {
		return err
	}
	if nRing > 0 && (ringPos < 0 || ringPos >= nRing) {
		return fmt.Errorf("online: ring position %d out of %d slots", ringPos, nRing)
	}
	if nRing == 0 && ringPos != 0 {
		return errors.New("online: nonzero ring position in cumulative mode")
	}
	if len(winAgree) != nSrc || len(winTotal) != nSrc {
		return fmt.Errorf("online: window sums are ragged: %d/%d for %d sources", len(winAgree), len(winTotal), nSrc)
	}
	return nil
}
