package baselines

import (
	"errors"
	"math"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

// Counts is the paper's supervised Naive Bayes baseline: source
// accuracies are the empirical fraction of correct observations on the
// ground truth (Laplace smoothed), and truth inference multiplies
// per-source likelihoods under conditional independence.
type Counts struct{}

// countsDefaultAccuracy is used for sources with no labeled
// observations. The paper initializes unseen sources optimistically;
// 0.7 matches its ACCU convention.
const countsDefaultAccuracy = 0.7

// NewCounts returns Counts.
func NewCounts() *Counts { return &Counts{} }

// Name implements Method.
func (*Counts) Name() string { return "Counts" }

// HasProbabilisticAccuracies implements Method.
func (*Counts) HasProbabilisticAccuracies() bool { return true }

// Fuse implements Method.
func (*Counts) Fuse(ds *data.Dataset, train data.TruthMap) (*Output, error) {
	if len(train) == 0 {
		return nil, errors.New("baselines: Counts requires ground truth")
	}
	// Empirical accuracies with Laplace smoothing.
	acc := make([]float64, ds.NumSources())
	for s := 0; s < ds.NumSources(); s++ {
		correct, tot := 0.0, 0.0
		for _, i := range ds.SourceObservationIndices(data.SourceID(s)) {
			ob := ds.Observations[i]
			truth, ok := train[ob.Object]
			if !ok {
				continue
			}
			tot++
			if ob.Value == truth {
				correct++
			}
		}
		if tot == 0 {
			acc[s] = countsDefaultAccuracy
			continue
		}
		acc[s] = mathx.Clamp((correct+1)/(tot+2), 0.05, 0.99)
	}

	out := &Output{
		Values:           make(map[data.ObjectID]data.ValueID, ds.NumObjects()),
		Posteriors:       make(map[data.ObjectID]map[data.ValueID]float64, ds.NumObjects()),
		SourceAccuracies: acc,
	}
	for o := 0; o < ds.NumObjects(); o++ {
		oid := data.ObjectID(o)
		obs := ds.ObjectObservations(oid)
		if len(obs) == 0 {
			continue
		}
		if v, ok := train[oid]; ok {
			out.Values[oid] = v
			out.Posteriors[oid] = map[data.ValueID]float64{v: 1}
			continue
		}
		dom := ds.Domain(oid)
		n := float64(len(dom) - 1)
		if n < 1 {
			n = 1
		}
		scores := make([]float64, len(dom))
		for i, d := range dom {
			for _, ob := range obs {
				a := acc[ob.Source]
				if ob.Value == d {
					scores[i] += math.Log(a)
				} else {
					scores[i] += math.Log((1 - a) / n)
				}
			}
		}
		probs := mathx.Softmax(scores, nil)
		post := make(map[data.ValueID]float64, len(dom))
		sm := map[data.ValueID]float64{}
		for i, d := range dom {
			post[d] = probs[i]
			sm[d] = probs[i]
		}
		out.Values[oid] = argmaxFloat(sm)
		out.Posteriors[oid] = post
	}
	return out, nil
}
