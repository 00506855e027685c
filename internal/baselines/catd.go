package baselines

import (
	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

// CATD is the confidence-aware truth-discovery method of Li et al.
// [22]. Sources with few observations get wide confidence intervals on
// their error rates; CATD weights each source by the upper confidence
// bound of its reliability,
//
//	w_s = χ²_{α/2, |O_s|} / Σ_{o ∈ O_s} d(v_os, v̂_o)
//
// where d is the 0/1 loss for categorical data, and re-estimates truths
// by weighted voting. Ground truth initializes the truth estimates (the
// adaptation the paper uses); remaining objects start from majority
// vote.
//
// CATD's weights are relative reliabilities, not probabilities, so
// HasProbabilisticAccuracies is false and the paper's Table 3 omits it.
type CATD struct{}

// CATD's settings.
const (
	// catdAlpha is the confidence level of the chi-square interval
	// (0.05 in Li et al.).
	catdAlpha     = 0.05
	catdMaxIters  = 30
	catdTolerance = 1e-6
)

// NewCATD returns CATD.
func NewCATD() *CATD { return &CATD{} }

// Name implements Method.
func (*CATD) Name() string { return "CATD" }

// HasProbabilisticAccuracies implements Method.
func (*CATD) HasProbabilisticAccuracies() bool { return false }

// Fuse implements Method.
func (*CATD) Fuse(ds *data.Dataset, train data.TruthMap) (*Output, error) {
	// Initialize truths: labels where available, else majority vote.
	mv, err := MajorityVote{}.Fuse(ds, train)
	if err != nil {
		return nil, err
	}
	values := mv.Values

	nS := ds.NumSources()
	weights := make([]float64, nS)
	prev := make([]float64, nS)
	for iter := 0; iter < catdMaxIters; iter++ {
		copy(prev, weights)
		// Weight update: chi-square upper bound over summed 0/1 loss.
		var wSum float64
		for s := 0; s < nS; s++ {
			idxs := ds.SourceObservationIndices(data.SourceID(s))
			if len(idxs) == 0 {
				weights[s] = 0
				continue
			}
			errSum := 0.05 // smoothing keeps perfect sources finite
			for _, i := range idxs {
				ob := ds.Observations[i]
				if v, ok := values[ob.Object]; ok && v != ob.Value {
					errSum++
				}
			}
			weights[s] = mathx.ChiSquareQuantile(catdAlpha/2, len(idxs)) / errSum
			wSum += weights[s]
		}
		if wSum > 0 {
			for s := range weights {
				weights[s] /= wSum
			}
		}
		// Truth update: weighted vote (labels stay pinned).
		for o := 0; o < ds.NumObjects(); o++ {
			oid := data.ObjectID(o)
			if _, ok := train[oid]; ok {
				continue
			}
			obs := ds.ObjectObservations(oid)
			if len(obs) == 0 {
				continue
			}
			scores := map[data.ValueID]float64{}
			for _, ob := range obs {
				scores[ob.Value] += weights[ob.Source]
			}
			values[oid] = argmaxFloat(scores)
		}
		if mathx.MaxAbsDiff(weights, prev) < catdTolerance {
			break
		}
	}
	return &Output{
		Values:           values,
		SourceAccuracies: weights,
	}, nil
}
