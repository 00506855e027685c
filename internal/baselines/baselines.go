// Package baselines implements the competing data-fusion methods from
// Section 5.1 of the SLiMFast paper:
//
//   - MajorityVote — the trivial strategy, used as a reference.
//   - Counts — Naive Bayes with source accuracies estimated from
//     ground truth as empirical fractions of correct observations.
//   - ACCU — the Bayesian method of Dong et al. [9] without source
//     copying.
//   - CATD — the confidence-aware iterative method of Li et al. [22],
//     which scales source reliability by chi-square confidence
//     intervals to handle long-tail sources.
//   - SSTF — the semi-supervised truth finder of Yin & Tan [40].
//
// Every method implements the Method interface so the experiment
// harness can run them uniformly. Methods that follow probabilistic
// semantics return per-source accuracy estimates; CATD and SSTF return
// trust scores that are not accuracies (the paper omits them from the
// source-accuracy comparison for this reason), reported via
// HasProbabilisticAccuracies.
package baselines

import (
	"sort"

	"slimfast/internal/data"
)

// Output is the common result shape for all fusion methods.
type Output struct {
	// Values holds the estimated true value per object (objects with
	// no observations are absent).
	Values map[data.ObjectID]data.ValueID
	// Posteriors holds per-object value probabilities where the
	// method defines them (nil entries allowed).
	Posteriors map[data.ObjectID]map[data.ValueID]float64
	// SourceAccuracies holds the per-source accuracy (or trust)
	// estimates; nil when the method does not produce them.
	SourceAccuracies []float64
}

// Method is a data-fusion algorithm: given the observations and
// (possibly empty) ground truth, produce value estimates.
type Method interface {
	// Name returns the method's display name as used in the paper's
	// tables.
	Name() string
	// HasProbabilisticAccuracies reports whether SourceAccuracies are
	// probability-scale accuracy estimates comparable to A*_s.
	HasProbabilisticAccuracies() bool
	// Fuse solves the instance.
	Fuse(ds *data.Dataset, train data.TruthMap) (*Output, error)
}

// MajorityVote picks each object's most frequent value; ties break
// toward the smallest ValueID for determinism. Labeled objects return
// their label.
type MajorityVote struct{}

// Name implements Method.
func (MajorityVote) Name() string { return "Majority" }

// HasProbabilisticAccuracies implements Method. Majority vote reports
// agreement-with-majority rates, which approximate accuracies.
func (MajorityVote) HasProbabilisticAccuracies() bool { return true }

// Fuse implements Method.
func (MajorityVote) Fuse(ds *data.Dataset, train data.TruthMap) (*Output, error) {
	out := &Output{
		Values:     make(map[data.ObjectID]data.ValueID, ds.NumObjects()),
		Posteriors: make(map[data.ObjectID]map[data.ValueID]float64, ds.NumObjects()),
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
		counts := map[data.ValueID]int{}
		for _, ob := range obs {
			counts[ob.Value]++
		}
		out.Values[oid] = argmaxCount(counts)
		post := make(map[data.ValueID]float64, len(counts))
		for v, c := range counts {
			post[v] = float64(c) / float64(len(obs))
		}
		out.Posteriors[oid] = post
	}
	// Source "accuracy": agreement with the fused values.
	out.SourceAccuracies = agreementAccuracies(ds, out.Values)
	return out, nil
}

// argmaxCount returns the key with the highest count, smallest id wins
// ties.
func argmaxCount(counts map[data.ValueID]int) data.ValueID {
	keys := make([]data.ValueID, 0, len(counts))
	for v := range counts {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	best, bestC := keys[0], counts[keys[0]]
	for _, v := range keys[1:] {
		if counts[v] > bestC {
			best, bestC = v, counts[v]
		}
	}
	return best
}

// argmaxFloat returns the key with the highest score, smallest id wins
// ties.
func argmaxFloat(scores map[data.ValueID]float64) data.ValueID {
	keys := make([]data.ValueID, 0, len(scores))
	for v := range scores {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	best, bestS := keys[0], scores[keys[0]]
	for _, v := range keys[1:] {
		if scores[v] > bestS {
			best, bestS = v, scores[v]
		}
	}
	return best
}

// agreementAccuracies estimates each source's accuracy as its rate of
// agreement with the fused estimates (Laplace smoothed). Sources with
// no usable observations get 0.5.
func agreementAccuracies(ds *data.Dataset, values map[data.ObjectID]data.ValueID) []float64 {
	acc := make([]float64, ds.NumSources())
	for s := range acc {
		agree, tot := 0.0, 0.0
		for _, i := range ds.SourceObservationIndices(data.SourceID(s)) {
			ob := ds.Observations[i]
			v, ok := values[ob.Object]
			if !ok {
				continue
			}
			tot++
			if ob.Value == v {
				agree++
			}
		}
		acc[s] = (agree + 0.5) / (tot + 1)
	}
	return acc
}
