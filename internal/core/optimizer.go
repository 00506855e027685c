package core

import (
	"math"
	"slices"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

// Algorithm names SLiMFast's two learning procedures.
type Algorithm int

const (
	// AlgorithmERM is empirical risk minimization over ground truth.
	AlgorithmERM Algorithm = iota
	// AlgorithmEM is (semi-supervised) expectation maximization.
	AlgorithmEM
)

// String returns "erm" or "em".
func (a Algorithm) String() string {
	if a == AlgorithmERM {
		return "erm"
	}
	return "em"
}

// OptimizerOptions tunes the ERM/EM selection procedure of Section 4.3.
type OptimizerOptions struct {
	// Tau is the threshold τ of Algorithm 2: when the ERM
	// generalization bound √(|K|/|G|)·log|G| falls below it, ERM is
	// chosen immediately. The paper uses 0.1 in the evaluation.
	Tau float64
}

// DefaultOptimizerOptions follows the paper's evaluation settings:
// τ = 0.1 and the printed Algorithm 1, which adds the raw 1−H(pe) per
// object (Example 8 scales each object's gain by its observation
// count; EMUnits' multiplyByM computes that variant). Decide departs
// from the paper in one documented way: it estimates the average
// accuracy with the overlap-weighted agreement mean. The paper's closed
// form divides by all |S|²−|S| pairs, which collapses the accuracy
// estimate to 0.5 on very sparse instances (Genomics has ~1
// observation per source) and misroutes the ERM/EM decision; the
// overlap-weighted mean recovers the intended behaviour and is
// identical on dense instances. RunAblations prints both estimators.
func DefaultOptimizerOptions() OptimizerOptions {
	return OptimizerOptions{Tau: 0.1}
}

// Decision records the optimizer's choice and its internal evidence,
// exposed so Table 4 can be reproduced and so users can inspect why an
// algorithm was selected.
type Decision struct {
	Algorithm   Algorithm
	ERMBound    float64 // √(|K|/|G|)·log|G|
	BoundFired  bool    // true when the bound alone decided for ERM
	ERMUnits    float64 // units of information in ground truth (= |G|)
	EMUnits     float64 // Algorithm 1's estimate
	AvgAccuracy float64 // matrix-completion estimate of mean accuracy
}

// EstimateAverageAccuracy implements the matrix-completion estimator of
// Section 4.3: the source-agreement matrix X has E[X_ij] = (2A−1)², so
// µ̂ = √(ΣX_ij / (|S|²−|S|)) and A = (µ̂+1)/2. The overlap-weighted
// variant divides by overlap mass instead of the full pair count.
//
// The overlap-weighted default never forms a pair: summed over all
// source pairs, agreements minus disagreements and the overlap are
// per-object quantities. An object with n claims, c_v of them on value
// v, contributes 2·Σ_v C(c_v,2) − C(n,2) to the agreement mass and
// C(n,2) to the overlap, so the estimate costs O(claims) time and a
// per-value counter of O(|values|) memory. Both sums are exact int64
// integers; a sum of integer-valued floats below 2^53 is exact in any
// order, so the result is bit-identical to summing a pair matrix.
//
// The paper's closed form needs each pair's mean agreement X_ij, a
// non-integer ratio, so it accumulates pairs one source row at a time
// (agreementClosedForm) and sums the ratios in ascending a·|S|+b order,
// which fixes the result's bits for any source count.
func EstimateAverageAccuracy(ds *data.Dataset, overlapWeighted bool) float64 {
	nS := ds.NumSources()
	if nS < 2 {
		return 0.5
	}
	if !overlapWeighted {
		return finishAverageAccuracy(agreementClosedForm(ds), float64(nS*nS-nS))
	}
	num, den := agreementCounts(ds)
	if den == 0 {
		return 0.5
	}
	return finishAverageAccuracy(float64(num), float64(den))
}

// agreementCounts returns the agreement mass (agreements minus
// disagreements) and the overlap (co-observations) summed over every
// unordered pair of claims on the same object, from per-object value
// counts.
func agreementCounts(ds *data.Dataset) (num, den int64) {
	count := make([]int32, ds.NumValues())
	for o := 0; o < ds.NumObjects(); o++ {
		obs := ds.ObjectObservations(data.ObjectID(o))
		n := int64(len(obs))
		// Each claim agrees with every earlier claim on its value:
		// same = Σ_v C(c_v,2).
		var same int64
		for _, ob := range obs {
			same += int64(count[ob.Value])
			count[ob.Value]++
		}
		for _, ob := range obs {
			count[ob.Value] = 0
		}
		pairs := n * (n - 1) / 2
		num += 2*same - pairs
		den += pairs
	}
	return num, den
}

// agreementClosedForm returns Σ_{i≠j} X_ij of the paper's closed form:
// twice the sum over co-observing source pairs a < b of (agreements −
// disagreements)/overlap. Observations are (object, source)-sorted, so
// the claims after source a's claim on an object are exactly its
// partners b > a; each row a is gathered into reused per-b counters and
// summed in ascending b, giving one fixed a·|S|+b order.
func agreementClosedForm(ds *data.Dataset) float64 {
	nS := ds.NumSources()
	agree := make([]int64, nS)
	overlap := make([]int64, nS)
	var touched []data.SourceID
	all := ds.Observations
	var num float64
	for a := 0; a < nS; a++ {
		for _, i := range ds.SourceObservationIndices(data.SourceID(a)) {
			oi := all[i]
			for j := i + 1; j < len(all) && all[j].Object == oi.Object; j++ {
				b := all[j].Source
				if overlap[b] == 0 {
					touched = append(touched, b)
				}
				overlap[b]++
				if oi.Value == all[j].Value {
					agree[b]++
				} else {
					agree[b]--
				}
			}
		}
		slices.Sort(touched)
		for _, b := range touched {
			num += 2 * float64(agree[b]) / float64(overlap[b])
			agree[b], overlap[b] = 0, 0
		}
		touched = touched[:0]
	}
	return num
}

// finishAverageAccuracy maps the accumulated agreement mass to the
// average-accuracy estimate A = (µ̂+1)/2.
func finishAverageAccuracy(num, den float64) float64 {
	muSq := num / den
	if muSq < 0 {
		muSq = 0
	}
	mu := math.Sqrt(muSq)
	return mathx.Clamp((mu+1)/2, 0.5, 1)
}

// EMUnits implements Algorithm 1: the estimated units of information
// the E-step extracts from unlabeled observations, under the
// simplifying model that every source has accuracy avgAcc and conflicts
// are resolved by majority vote.
func EMUnits(ds *data.Dataset, avgAcc float64, multiplyByM bool) float64 {
	var total float64
	for o := 0; o < ds.NumObjects(); o++ {
		oid := data.ObjectID(o)
		m := len(ds.ObjectObservations(oid))
		if m == 0 {
			continue
		}
		nd := len(ds.Domain(oid))
		if nd < 1 {
			continue
		}
		// pe = P(majority vote is correct) = P(#correct > m/|Do|)
		// via the Binomial CDF, exactly as Algorithm 1 states.
		k := m / nd // floor
		pe := mathx.BinomTailAbove(m, k, avgAcc)
		if pe < 0.5 {
			continue
		}
		gain := 1 - mathx.Entropy2(pe)
		if multiplyByM {
			gain *= float64(m)
		}
		total += gain
	}
	return total
}

// Decide implements Algorithm 2: choose between ERM and EM for the
// given instance and ground truth.
func Decide(ds *data.Dataset, train data.TruthMap, opts OptimizerOptions) Decision {
	dec := Decision{}
	numFeatures := ds.NumFeatures()
	if numFeatures == 0 {
		// Without domain features the model's capacity is its |S|
		// per-source indicators.
		numFeatures = ds.NumSources()
	}
	g := float64(len(train))
	if g > 0 {
		dec.ERMBound = math.Sqrt(float64(numFeatures)/g) * math.Log(g)
	} else {
		dec.ERMBound = math.Inf(1)
	}
	if g > 1 && dec.ERMBound < opts.Tau {
		dec.Algorithm = AlgorithmERM
		dec.BoundFired = true
		return dec
	}
	dec.ERMUnits = g
	dec.AvgAccuracy = EstimateAverageAccuracy(ds, true)
	dec.EMUnits = EMUnits(ds, dec.AvgAccuracy, false)
	if dec.ERMUnits < dec.EMUnits {
		dec.Algorithm = AlgorithmEM
	} else {
		dec.Algorithm = AlgorithmERM
	}
	return dec
}

// FuseAuto runs the full SLiMFast pipeline: decide between ERM and EM
// with the optimizer, fit, and infer. The decision is returned for
// reporting.
func (m *Model) FuseAuto(train data.TruthMap, opts OptimizerOptions) (*Result, Decision, error) {
	dec := Decide(m.ds, train, opts)
	alg := dec.Algorithm
	if len(train) == 0 {
		alg = AlgorithmEM // no ground truth: ERM is impossible
		dec.Algorithm = AlgorithmEM
	}
	res, err := m.Fuse(alg, train)
	if err != nil {
		return nil, dec, err
	}
	return res, dec, nil
}
