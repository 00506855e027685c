package baselines

import (
	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

// ACCU is the Bayesian data-fusion method of Dong et al. [9] without
// source copying (the configuration the paper compares against). It
// alternates between computing value probabilities from vote counts
//
//	C(d) = Σ_{s: v_os = d} ln( n·A_s / (1−A_s) ),  n = max(|Do|−1, 1)
//
// and re-estimating each source's accuracy as the mean probability of
// the values it claimed. Any ground truth initializes the accuracy
// estimates and pins the labeled objects, as suggested in [9].
type ACCU struct{}

// ACCU's settings, from Dong et al.
const (
	// accuInitAccuracy seeds unlabeled sources (the 0.8 of Dong et al.).
	accuInitAccuracy = 0.8
	// accuMaxIters and accuTolerance control the fixed-point iteration.
	accuMaxIters  = 50
	accuTolerance = 1e-4
)

// NewACCU returns ACCU.
func NewACCU() *ACCU { return &ACCU{} }

// Name implements Method.
func (*ACCU) Name() string { return "ACCU" }

// HasProbabilisticAccuracies implements Method.
func (*ACCU) HasProbabilisticAccuracies() bool { return true }

// Fuse implements Method.
func (*ACCU) Fuse(ds *data.Dataset, train data.TruthMap) (*Output, error) {
	nS := ds.NumSources()
	acc := make([]float64, nS)
	// Initialize from ground truth where possible.
	labeledCorrect := make([]float64, nS)
	labeledTotal := make([]float64, nS)
	for _, ob := range ds.Observations {
		truth, ok := train[ob.Object]
		if !ok {
			continue
		}
		labeledTotal[ob.Source]++
		if ob.Value == truth {
			labeledCorrect[ob.Source]++
		}
	}
	for s := 0; s < nS; s++ {
		if labeledTotal[s] > 0 {
			acc[s] = mathx.Clamp((labeledCorrect[s]+1)/(labeledTotal[s]+2), 0.05, 0.99)
		} else {
			acc[s] = accuInitAccuracy
		}
	}

	posts := make([]map[data.ValueID]float64, ds.NumObjects())
	eStep := func() {
		for o := 0; o < ds.NumObjects(); o++ {
			oid := data.ObjectID(o)
			obs := ds.ObjectObservations(oid)
			if len(obs) == 0 {
				posts[o] = nil
				continue
			}
			if v, ok := train[oid]; ok {
				posts[o] = map[data.ValueID]float64{v: 1}
				continue
			}
			dom := ds.Domain(oid)
			lnN := mathx.LogFalseValues(len(dom))
			scores := make([]float64, len(dom))
			pos := make(map[data.ValueID]int, len(dom))
			for i, d := range dom {
				pos[d] = i
			}
			for _, ob := range obs {
				as := mathx.Clamp(acc[ob.Source], 0.01, 0.99)
				scores[pos[ob.Value]] += lnN + mathx.Logit(as)
			}
			probs := mathx.Softmax(scores, nil)
			post := make(map[data.ValueID]float64, len(dom))
			for i, d := range dom {
				post[d] = probs[i]
			}
			posts[o] = post
		}
	}

	prev := make([]float64, nS)
	for iter := 0; iter < accuMaxIters; iter++ {
		eStep()
		copy(prev, acc)
		// M-step: A_s = mean posterior probability of the source's
		// claims (smoothed).
		for s := 0; s < nS; s++ {
			var sum, tot float64
			for _, i := range ds.SourceObservationIndices(data.SourceID(s)) {
				ob := ds.Observations[i]
				if posts[ob.Object] == nil {
					continue
				}
				sum += posts[ob.Object][ob.Value]
				tot++
			}
			if tot == 0 {
				continue
			}
			acc[s] = mathx.Clamp((sum+0.5)/(tot+1), 0.05, 0.99)
		}
		if mathx.MaxAbsDiff(acc, prev) < accuTolerance {
			break
		}
	}
	eStep()

	out := &Output{
		Values:           make(map[data.ObjectID]data.ValueID, ds.NumObjects()),
		Posteriors:       make(map[data.ObjectID]map[data.ValueID]float64, ds.NumObjects()),
		SourceAccuracies: acc,
	}
	for o := 0; o < ds.NumObjects(); o++ {
		if posts[o] == nil {
			continue
		}
		oid := data.ObjectID(o)
		out.Values[oid] = argmaxFloat(posts[o])
		out.Posteriors[oid] = posts[o]
	}
	return out, nil
}
