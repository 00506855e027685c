// Package metrics implements the two evaluation measures from Section
// 5.1 of the SLiMFast paper plus supporting divergences:
//
//   - Accuracy for true object values: the fraction of test objects for
//     which a fusion method identified the correct value.
//   - Error for estimated source accuracies: a weighted average of
//     per-source absolute estimation error, weighted by the number of
//     observations each source provides.
//
// It also provides the mean Bernoulli KL divergence used by Theorem 3's
// bound and standard aggregate helpers for the experiment harness.
package metrics

import (
	"math"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

// ObjectAccuracy returns the fraction of objects in test whose estimate
// matches the gold label. Objects missing from estimates count as wrong
// (a method that abstains is penalized, consistent with the paper's
// single-truth evaluation). Returns 0 when test is empty.
func ObjectAccuracy(estimates map[data.ObjectID]data.ValueID, test data.TruthMap) float64 {
	if len(test) == 0 {
		return 0
	}
	correct := 0
	for o, truth := range test {
		if v, ok := estimates[o]; ok && v == truth {
			correct++
		}
	}
	return float64(correct) / float64(len(test))
}

// SourceAccuracyError is the paper's weighted-average absolute error for
// estimated source accuracies: each source's |A_s - A*_s| weighted by
// its observation count, so sources that supply many observations
// dominate (the weighting scheme of Li et al. adopted in Section 5.1).
func SourceAccuracyError(d *data.Dataset, estimated, trueAcc []float64) float64 {
	var num, den float64
	for s := 0; s < d.NumSources(); s++ {
		w := float64(d.SourceObservationCount(data.SourceID(s)))
		if w == 0 {
			continue
		}
		num += w * math.Abs(estimated[s]-trueAcc[s])
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// MeanKL returns (1/|S|) Σ_s KL(A_s || A*_s), the quantity bounded by
// Theorem 3. Estimates are clamped away from {0,1}.
func MeanKL(estimated, trueAcc []float64) float64 {
	if len(estimated) == 0 {
		return 0
	}
	var sum float64
	for s := range estimated {
		sum += mathx.KLBernoulli(mathx.ClampProb(estimated[s]), trueAcc[s])
	}
	return sum / float64(len(estimated))
}

// RelativeDifference returns (a-b)/b as a percentage, the statistic the
// paper's Table 2 Panel B reports (difference of each baseline relative
// to SLiMFast). Returns 0 when b is 0.
func RelativeDifference(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
