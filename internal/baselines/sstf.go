package baselines

import (
	"math"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

// SSTF is the semi-supervised truth finder of Yin & Tan [40]: it
// propagates truth scores from labeled objects through the bipartite
// source–claim graph. Labeled values are pinned at confidence 1 (their
// conflicting siblings at 0); source trust is the mean confidence of
// the source's claims; claim confidence is a dampened combination of
// the trusts of its supporting sources, blended with the previous
// round's value (the graph-regularization term of [40], approximated by
// exponential smoothing with weight sstfLambda).
type SSTF struct{}

// SSTF's settings in the reproduction.
const (
	// sstfLambda blends the propagated score with the previous score
	// (graph smoothing).
	sstfLambda = 0.5
	// sstfGamma dampens the trust-score sigmoid, as in TruthFinder
	// [39].
	sstfGamma     = 0.3
	sstfInitTrust = 0.5
	sstfMaxIters  = 40
	sstfTolerance = 1e-5
)

// NewSSTF returns SSTF.
func NewSSTF() *SSTF { return &SSTF{} }

// Name implements Method.
func (*SSTF) Name() string { return "SSTF" }

// HasProbabilisticAccuracies implements Method. SSTF's trust scores are
// propagation scores, not accuracy estimates (the paper excludes SSTF
// from the source-accuracy comparison).
func (*SSTF) HasProbabilisticAccuracies() bool { return false }

// Fuse implements Method.
func (*SSTF) Fuse(ds *data.Dataset, train data.TruthMap) (*Output, error) {
	nS := ds.NumSources()
	trust := make([]float64, nS)
	for s := range trust {
		trust[s] = sstfInitTrust
	}
	conf := make([]map[data.ValueID]float64, ds.NumObjects())
	// Initialize claim confidences uniformly; pin labels.
	for o := 0; o < ds.NumObjects(); o++ {
		oid := data.ObjectID(o)
		dom := ds.Domain(oid)
		if len(dom) == 0 {
			continue
		}
		cm := make(map[data.ValueID]float64, len(dom))
		if truth, ok := train[oid]; ok {
			for _, d := range dom {
				if d == truth {
					cm[d] = 1
				}
			}
		} else {
			for _, d := range dom {
				cm[d] = 1 / float64(len(dom))
			}
		}
		conf[o] = cm
	}

	prev := make([]float64, nS)
	for iter := 0; iter < sstfMaxIters; iter++ {
		copy(prev, trust)
		// Trust from claim confidences.
		for s := 0; s < nS; s++ {
			var sum, tot float64
			for _, i := range ds.SourceObservationIndices(data.SourceID(s)) {
				ob := ds.Observations[i]
				if conf[ob.Object] == nil {
					continue
				}
				sum += conf[ob.Object][ob.Value]
				tot++
			}
			if tot > 0 {
				trust[s] = mathx.Clamp(sum/tot, 0.01, 0.99)
			}
		}
		// Claim confidences from trust, smoothed; labels stay pinned.
		for o := 0; o < ds.NumObjects(); o++ {
			oid := data.ObjectID(o)
			if conf[o] == nil {
				continue
			}
			if _, ok := train[oid]; ok {
				continue
			}
			for d := range conf[o] {
				var sigma float64
				for _, ob := range ds.ObjectObservations(oid) {
					if ob.Value != d {
						continue
					}
					sigma += -math.Log(1 - mathx.Clamp(trust[ob.Source], 0.01, 0.99))
				}
				propagated := 1 / (1 + math.Exp(-sstfGamma*sigma))
				conf[o][d] = sstfLambda*conf[o][d] + (1-sstfLambda)*propagated
			}
		}
		if mathx.MaxAbsDiff(trust, prev) < sstfTolerance {
			break
		}
	}

	out := &Output{
		Values:           make(map[data.ObjectID]data.ValueID, ds.NumObjects()),
		Posteriors:       make(map[data.ObjectID]map[data.ValueID]float64, ds.NumObjects()),
		SourceAccuracies: trust,
	}
	for o := 0; o < ds.NumObjects(); o++ {
		if conf[o] == nil {
			continue
		}
		oid := data.ObjectID(o)
		out.Values[oid] = argmaxFloat(conf[o])
		out.Posteriors[oid] = conf[o]
	}
	return out, nil
}
