// Package online implements the streaming half of SLiMFast's headline
// contribution: *discriminative* source reliability, learned from
// domain features (Section 3 of the paper), maintained incrementally
// on a stream instead of refit in batch.
//
// The Learner is a minibatch-SGD logistic regression over per-source
// Boolean feature labels — the same feature layout core.Model's
// PredictAccuracy uses (σ_s = intercept + Σ_k w_k f_sk, A_s =
// logistic(σ_s)) — trained against the posterior-agreement mass the
// streaming engine holds per source. The training objective is the
// weighted logistic loss of core's Calibrate pass:
//
//	Σ_s [ c_s·(−log A_s(w)) + (t_s−c_s)·(−log(1−A_s(w))) ]
//
// where (c_s, t_s) are a source's agreement and claim mass. The
// learner keeps no evidence of its own: the engine passes its folded
// mass at every epoch refresh (FitMass), so the engine's Decay is the
// one forgetting knob, and under Decay < 1 a drifting cohort drags its
// shared feature weight with it.
//
// The served accuracy is the empirical-Bayes blend Calibrate's
// closed-form step uses (Blend): the agreement ratio shrunk toward the
// feature-model prediction by priorStrength pseudo-counts. Heavily
// observed sources are governed by their own agreement; lightly
// observed ones inherit the prediction of sources that share their
// features.
//
// Everything is deterministic: minibatch order comes from a seed
// mixed with the epoch counter, the SGD step counter drives the
// learning-rate decay, and both counters serialize through the
// checkpoint codec, so restore → continue is bit-identical to never
// stopping.
package online

import (
	"math"
	"sort"

	"slimfast/internal/mathx"
	"slimfast/internal/randx"
)

// The learner's hyper-parameters. They track the batch discriminative
// fit on the test workloads without per-stream tuning, and the
// checkpoint's learner-config block records them (see EncodeConfig).
const (
	// priorStrength is the pseudo-count mass behind the feature-model
	// prediction when blending with empirical agreement — the same
	// role core.Calibrate's priorStrength plays.
	priorStrength = 4

	// fitSteps is the number of minibatch SGD steps per FitMass call,
	// bounding the learning work added to a refresh regardless of how
	// many sources are live; batchSize is the number of sources per
	// minibatch.
	fitSteps  = 24
	batchSize = 16

	// learningRate and rateDecay follow optim's schedule: the step
	// size at (persisted) step t is learningRate / (1 + rateDecay·t).
	learningRate = 0.3
	rateDecay    = 0.01

	// l2 is the ridge penalty on the feature weights (the intercept is
	// unpenalized, as in standard logistic regression).
	l2 = 1e-3

	// shuffleSeed drives the deterministic minibatch shuffle (mixed
	// with the epoch counter, so every refresh visits sources in a
	// fresh but reproducible order).
	shuffleSeed = 1
)

// InitAccuracy is the anchor accuracy: an untrained learner, and any
// source with no active features, predicts it. The streaming engine's
// estimator prior starts every source there too (stream.InitAccuracy).
const InitAccuracy = 0.7

// Accuracy clamp bounds, matching the streaming engine's
// EstimateAccuracy so logits stay bounded either way.
const (
	accLo = 0.02
	accHi = 0.98
)

// Learner is the online discriminative-reliability model. It is not
// safe for concurrent use; the streaming engine serializes all
// mutation under its refresh lock and guards reads separately.
type Learner struct {
	// Feature vocabulary, interned in first-seen order, and the learned
	// weights: w[0] is the intercept, features at w[1+k].
	featIdx   map[string]int
	featNames []string
	w         []float64

	// srcFeats[s] lists source s's sorted feature ids; sources register
	// once, in intern order, via SetFeatures.
	srcFeats [][]int32

	// Persisted counters: epochs drives the per-fit shuffle seed,
	// step the learning-rate decay.
	epochs int64
	step   int64

	// Reused scratch (active-source order and the dense gradient).
	active []int
	grad   []float64
}

// New returns an empty learner whose intercept is anchored at
// InitAccuracy.
func New() *Learner {
	return &Learner{
		featIdx: map[string]int{},
		w:       []float64{mathx.Logit(InitAccuracy)},
	}
}

// NumSources returns how many sources have registered features.
func (l *Learner) NumSources() int { return len(l.srcFeats) }

// SetFeatures registers source sid with the given feature labels,
// interning new labels into the vocabulary. Sources must register in
// ascending id order (the engine registers at intern time), each
// exactly once; labels are deduplicated and sorted by feature id so
// the gradient accumulation order is reproducible.
func (l *Learner) SetFeatures(sid int, labels []string) {
	if sid != len(l.srcFeats) {
		panic("online: sources must register in ascending id order")
	}
	var feats []int32
	for _, lbl := range labels {
		k, ok := l.featIdx[lbl]
		if !ok {
			k = len(l.featNames)
			l.featIdx[lbl] = k
			l.featNames = append(l.featNames, lbl)
			l.w = append(l.w, 0)
		}
		dup := false
		for _, f := range feats {
			if f == int32(k) {
				dup = true
				break
			}
		}
		if !dup {
			feats = append(feats, int32(k))
		}
	}
	sort.Slice(feats, func(i, j int) bool { return feats[i] < feats[j] })
	l.srcFeats = append(l.srcFeats, feats)
}

// WeightedFeature is one (label, weight) pair from the learned model.
type WeightedFeature struct {
	Label  string
	Weight float64
}

// FeatureWeights enumerates every interned feature label with its
// learned weight, in intern (first-seen) order, plus the intercept.
// The slice is freshly allocated.
func (l *Learner) FeatureWeights() (intercept float64, feats []WeightedFeature) {
	feats = make([]WeightedFeature, len(l.featNames))
	for k, name := range l.featNames {
		feats[k] = WeightedFeature{Label: name, Weight: l.w[1+k]}
	}
	return l.w[0], feats
}

// WeightNorm returns the L2 norm of the learned weight vector
// (intercept slot included): an allocation-free drift signal for
// instrumentation.
func (l *Learner) WeightNorm() float64 {
	var s float64
	for _, w := range l.w {
		s += w * w
	}
	return math.Sqrt(s)
}

// sigmaOf computes the feature-model logit of source sid at the
// current weights.
func (l *Learner) sigmaOf(sid int) float64 {
	z := l.w[0]
	for _, k := range l.srcFeats[sid] {
		z += l.w[1+k]
	}
	return z
}

// Predict returns the pure feature-model accuracy estimate of source
// sid — what the regression alone says, before any empirical evidence
// is blended in.
func (l *Learner) Predict(sid int) float64 {
	return mathx.Logistic(l.sigmaOf(sid))
}

// PredictLabels estimates the accuracy of a source never seen on the
// stream from feature labels alone (the PredictAccuracy analog;
// unknown labels are ignored).
func (l *Learner) PredictLabels(labels []string) float64 {
	z := l.w[0]
	for _, lbl := range labels {
		if k, ok := l.featIdx[lbl]; ok {
			z += l.w[1+k]
		}
	}
	return mathx.Logistic(z)
}

// Blend is the empirical-Bayes accuracy estimate given agreement mass
// c over claim mass t: the agreement ratio shrunk toward the
// feature-model prediction by priorStrength pseudo-counts, clamped
// like the engine's EstimateAccuracy.
func (l *Learner) Blend(sid int, c, t float64) float64 {
	if t < 0 {
		t = 0
	}
	c = mathx.Clamp(c, 0, t)
	prior := l.Predict(sid)
	return mathx.Clamp((c+priorStrength*prior)/(t+priorStrength), accLo, accHi)
}

// FitMass runs one round of minibatch SGD against per-source
// agreement and claim mass (indexed by source id; shorter than
// NumSources is fine — missing tails are zero mass), the way
// core.Calibrate's feature-pooling pass does. The streaming engine
// calls it at every epoch refresh with its folded mass and at every
// Refine sweep with the exact mass. Each call advances the epoch and
// step counters, so the call sequence stays deterministic and
// checkpoint-restorable. Every source in the vectors must have
// registered.
func (l *Learner) FitMass(agree, total []float64) {
	if len(agree) > len(l.srcFeats) || len(total) != len(agree) {
		panic("online: FitMass vectors exceed registered sources")
	}
	l.train(agree, total)
	l.epochs++
}

// train runs one round of minibatch SGD steps: sources with positive
// claim mass, shuffled by a seed derived from the epoch counter,
// consumed in minibatches at frozen weights with one mean-gradient
// step per batch. Agreement is clamped into [0, total]. Gradients are
// normalized by the mean claim mass of the active sources (as in
// core.Calibrate) so step sizes stay O(1) regardless of traffic
// volume.
func (l *Learner) train(agree, total []float64) {
	l.active = l.active[:0]
	var massSum float64
	for s, t := range total {
		if t > 0 {
			l.active = append(l.active, s)
			massSum += t
		}
	}
	n := len(l.active)
	if n == 0 {
		return
	}
	massMean := massSum / float64(n)
	rng := randx.New(randx.Mix(shuffleSeed, l.epochs))
	rng.Shuffle(n, func(i, j int) { l.active[i], l.active[j] = l.active[j], l.active[i] })

	if cap(l.grad) < len(l.w) {
		l.grad = make([]float64, len(l.w))
	}
	g := l.grad[:len(l.w)]
	pos := 0
	for step := 0; step < fitSteps; step++ {
		k := min(batchSize, n)
		for j := range g {
			g[j] = 0
		}
		for b := 0; b < k; b++ {
			s := l.active[pos]
			pos++
			if pos == n {
				pos = 0
			}
			t := total[s]
			c := mathx.Clamp(agree[s], 0, t)
			a := mathx.Logistic(l.sigmaOf(s))
			// d/dσ of the weighted logistic loss, volume-normalized.
			r := (t*a - c) / massMean
			g[0] += r
			for _, f := range l.srcFeats[s] {
				g[1+f] += r
			}
		}
		lr := learningRate / (1 + rateDecay*float64(l.step))
		l.step++
		inv := 1 / float64(k)
		l.w[0] -= lr * g[0] * inv // intercept: no L2
		for j := 1; j < len(l.w); j++ {
			l.w[j] -= lr * (g[j]*inv + l2*l.w[j])
		}
	}
}

// Clone deep-copies the learner (used by the engine's copy-on-read
// checkpoint path: snapshot under the refresh lock, encode without).
func (l *Learner) Clone() *Learner {
	c := &Learner{
		featIdx:   make(map[string]int, len(l.featIdx)),
		featNames: append([]string(nil), l.featNames...),
		w:         append([]float64(nil), l.w...),
		srcFeats:  make([][]int32, len(l.srcFeats)),
		epochs:    l.epochs,
		step:      l.step,
	}
	for k, v := range l.featIdx {
		c.featIdx[k] = v
	}
	for s := range l.srcFeats {
		c.srcFeats[s] = append([]int32(nil), l.srcFeats[s]...)
	}
	return c
}
