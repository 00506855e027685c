package core

import (
	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/optim"
	"slimfast/internal/parallel"
)

// Calibrate refits the source and feature weights so that each source's
// accuracy A_s = logistic(σ_s) matches its posterior-expected agreement
// with the fused truth. This mirrors Step 3 of the paper's Theorem 3
// construction: given per-source correctness estimates a_s, choose w to
// minimize
//
//	Σ_s [ a_s·(−log A_s(w)) + (|O_s|−a_s)·(−log(1−A_s(w))) ]
//
// which is a convex weighted logistic regression over the sources. The
// correctness estimates come from the current posteriors: labeled
// objects contribute exact agreement, unlabeled objects contribute
// P(To = v_os). Laplace smoothing (one pseudo-observation split both
// ways) keeps single-observation sources away from {0,1}.
//
// EM needs this pass because its likelihood only weakly identifies σ_s
// once object posteriors saturate (every weight assignment above a
// margin explains saturated posteriors equally well); anchoring on
// agreement counts restores Equation 2's σ_s = logit(A_s) semantics.
// Copy-pair weights are left untouched.
//
// Calibration trades a sliver of MAP sharpness for honest accuracies:
// EM's drifted weights can have *more* contrast than the calibrated
// ones and occasionally win a few contested objects, but their
// accuracy estimates are badly biased; calibrated weights keep object
// accuracy within a few points while cutting the source-accuracy error
// by an order of magnitude (see TestCalibrationFixesEMSourceError).
//
// Calibration iterates a few rounds to a fixed point: when the incoming
// weights produce soft posteriors (e.g. EM parked near its init), the
// first round's agreement counts are diluted by posterior mass on wrong
// values; re-deriving the counts under the calibrated weights sharpens
// them, and the process converges in 2–3 rounds (the same fixed-point
// structure as ACCU's accuracy/confidence alternation).
func (m *Model) Calibrate(train data.TruthMap) error {
	return m.calibrate(train, false)
}

// CalibrateSupervised anchors the accuracies on labeled agreement
// only: unlabeled observations contribute nothing, keeping the
// procedure a pure function of the ground truth. This is the variant
// FitERM uses — ERM's defining property is that it learns from G alone
// (the paper's Figure 4 contrasts exactly this against EM's use of the
// full observation set).
func (m *Model) CalibrateSupervised(train data.TruthMap) error {
	return m.calibrate(train, true)
}

func (m *Model) calibrate(train data.TruthMap, labeledOnly bool) error {
	// A label the learners cannot fit (see trainableLabel) leaves its
	// object unlabeled here too, so one fit reads every label one way.
	train = m.trainableLabels(train)
	// Anchor the fixed point: starting calibration from a weak or
	// untrained model (mean σ ≈ 0, near-uniform posteriors) rates
	// every source near chance, flips σ negative, and converges to the
	// *inverted* labeling — the same failure ACCU prevents by starting
	// all sources at accuracy 0.8. If the average reliability of
	// observed sources is below that anchor, shift all per-source
	// weights up uniformly (preserving any learned contrasts); the
	// counts overwrite them within a round anyway.
	if m.opts.EMInitAccuracy > 0 {
		target := mathx.Logit(m.opts.EMInitAccuracy)
		var mean float64
		active := 0
		for s := 0; s < m.numSources; s++ {
			if m.ds.SourceObservationCount(data.SourceID(s)) == 0 {
				continue
			}
			mean += m.Sigma(data.SourceID(s))
			active++
		}
		if active > 0 {
			mean /= float64(active)
			if mean < target {
				shift := target - mean
				for i := 0; i < m.numSources*m.numClasses; i++ {
					m.w[i] += shift
				}
				m.invalidateSigma()
			}
		}
	}
	rounds := 3
	if labeledOnly {
		// Labeled-only counts do not change across rounds; one
		// feature-fit plus the closed-form step is the fixed point.
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		if err := m.calibrateOnce(train, round == 0, labeledOnly); err != nil {
			return err
		}
	}
	return nil
}

// trainableLabels returns train without the labels trainableLabel
// rejects (and without keys naming no object); train itself when it
// holds none.
func (m *Model) trainableLabels(train data.TruthMap) data.TruthMap {
	keep := func(o data.ObjectID, v data.ValueID) bool {
		return o >= 0 && int(o) < m.ds.NumObjects() && m.trainableLabel(o, v)
	}
	for o, v := range train {
		if keep(o, v) {
			continue
		}
		out := make(data.TruthMap, len(train))
		for o, v := range train {
			if keep(o, v) {
				out[o] = v
			}
		}
		return out
	}
	return train
}

// calibrateOnce runs one agreement-count / weight-refit round. The SGD
// feature-pooling pass only runs on the first round; later rounds do
// the closed-form per-source step against the sharpened counts.
//
// Inference uses the dense slab path (no per-object posterior maps) and
// the agreement counting fans out over sources: the count slots of
// source s — srcIdx(s, c) for every class c — are written only by s's
// task, and each source's observations are visited in global
// observation order (bySource preserves it), so every slot accumulates
// the same floats in the same order as the legacy serial sweep and the
// counts are bit-identical for any worker count.
func (m *Model) calibrateOnce(train data.TruthMap, fitFeatures, labeledOnly bool) error {
	dr := m.inferDense(train)
	nS := m.numSources
	// Per (source, class) counts, flattened the same way as srcIdx.
	nSC := nS * m.numClasses
	corr := make([]float64, nSC)
	tot := make([]float64, nSC)
	parallel.Do(nS, m.workers(), func(ch parallel.Chunk) {
		for s := ch.Lo; s < ch.Hi; s++ {
			for _, oi := range m.ds.SourceObservationIndices(data.SourceID(s)) {
				ob := m.ds.Observations[oi]
				if dr.state[ob.Object] == objEmpty {
					continue
				}
				i := m.srcIdx(ob.Source, m.classOfObject(ob.Object))
				if truth, labeled := train[ob.Object]; labeled {
					tot[i]++
					if ob.Value == truth {
						corr[i]++
					}
					continue
				}
				if labeledOnly {
					continue
				}
				tot[i]++
				corr[i] += dr.probs[m.lay.scoreStart[ob.Object]+int(m.lay.obsLocal[oi])]
			}
		}
	})
	var totMean float64
	active := 0
	for i := 0; i < nSC; i++ {
		if tot[i] == 0 {
			continue
		}
		totMean += tot[i]
		active++
	}
	if active == 0 {
		return nil
	}
	totMean /= float64(active)

	cfg := m.opts.Optim
	cfg.Seed = m.opts.Optim.Seed + 7919
	grad := func(i int, w []float64, g *optim.Sparse) {
		if tot[i] == 0 {
			return
		}
		s := data.SourceID(i % nS)
		as := mathx.Logistic(m.sigmaAt(w, i, s))
		// d/dσ of the weighted logistic loss, scaled so gradient
		// magnitudes stay O(1) regardless of observation counts.
		r := (tot[i]*as - corr[i]) / totMean
		g.Add(i, r)
		for _, c := range m.plan.feat[m.plan.featStart[s]:m.plan.featStart[s+1]] {
			g.Add(int(c), r)
		}
	}
	if fitFeatures {
		_, err := optim.Minimize(nSC, m.w, grad, cfg)
		m.invalidateSigma()
		if err != nil {
			return err
		}
	}

	// The SGD pass pools signal into the feature weights; finish with
	// the exact per-source step. With per-source indicators in the
	// model, the weighted-logistic MLE satisfies A_s = corr_s/tot_s
	// exactly, so set w_s in closed form, shrinking low-count sources
	// toward their feature-based prior (empirical-Bayes blend with
	// pseudo-count priorStrength).
	const priorStrength = 4.0
	for i := 0; i < nSC; i++ {
		if tot[i] == 0 {
			continue
		}
		sid := data.SourceID(i % nS)
		class := i / nS
		featPart := m.SigmaClass(sid, class) - m.w[i]
		prior := mathx.Logistic(m.SigmaClass(sid, class))
		pHat := (corr[i] + priorStrength*prior) / (tot[i] + priorStrength)
		m.w[i] = mathx.Logit(pHat) - featPart
	}
	m.invalidateSigma()
	return nil
}
