// Package mathx provides the numeric kernel shared by the SLiMFast
// implementation: logistic functions, numerically stable log-sum-exp,
// entropies, Bernoulli KL divergence, binomial tail probabilities, and
// the chi-square quantile approximation used by the CATD baseline.
//
// Everything is implemented on top of the standard library only, with
// attention to the numerical edge cases that show up in data fusion:
// probabilities clamped away from {0,1}, long chains of products done
// in log space, and CDF sums accumulated from the small end.
package mathx

import (
	"math"
)

// Eps is the default probability clamp used throughout the repository.
// Source accuracies and posteriors are kept inside [Eps, 1-Eps] so that
// logits and log-losses stay finite.
const Eps = 1e-9

// Logistic returns 1/(1+exp(-x)), the standard sigmoid, computed in a
// branch that avoids overflow for large |x|.
func Logistic(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Logit returns log(p/(1-p)), clamping p into (Eps, 1-Eps) first.
func Logit(p float64) float64 {
	p = ClampProb(p)
	return math.Log(p / (1 - p))
}

// LogFalseValues is ACCU's false-value term ln n, n = max(k−1, 1), for
// an object whose claims name k distinct values (Dong, Berti-Equille &
// Srivastava, PVLDB 2009). A vote by a source of accuracy A weighs
// ln(n·A/(1−A)) = Logit(A) + LogFalseValues(k): Equation 2's logit(A)
// when k ≤ 2, and the weight that keeps a soft source's vote positive
// in larger domains, where logit(A) turns negative once A < 1/2.
// Domains under 64 values read a table, so a streaming claim's
// softmax pays no extra logarithm.
func LogFalseValues(k int) float64 {
	if k < len(logFalseValues) {
		return logFalseValues[max(k, 0)]
	}
	return math.Log(float64(k - 1))
}

// logFalseValues[k] is LogFalseValues(k) for small k: the same
// math.Log bits, with k ≤ 2 at 0.
var logFalseValues = func() (t [64]float64) {
	for k := 3; k < len(t); k++ {
		t[k] = math.Log(float64(k - 1))
	}
	return t
}()

// ClampProb clamps p into [Eps, 1-Eps].
func ClampProb(p float64) float64 {
	return Clamp(p, Eps, 1-Eps)
}

// Clamp restricts x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// LogSumExp returns log(sum_i exp(xs[i])) computed stably. It returns
// -Inf for an empty slice, matching log(0).
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// Softmax writes the softmax of xs into out (allocating when out is nil
// or too short) and returns it. The computation subtracts the maximum
// for stability.
func Softmax(xs []float64, out []float64) []float64 {
	if cap(out) < len(xs) {
		out = make([]float64, len(xs))
	}
	out = out[:len(xs)]
	if len(xs) == 0 {
		return out
	}
	lse := LogSumExp(xs)
	for i, x := range xs {
		out[i] = math.Exp(x - lse)
	}
	return out
}

// Entropy2 returns the binary entropy of p in bits:
// H(p) = -p log2 p - (1-p) log2 (1-p). H(0)=H(1)=0 by convention.
func Entropy2(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// KLBernoulli returns KL(p || q) in nats for Bernoulli parameters p and
// q, clamping q away from {0,1} so the divergence stays finite.
func KLBernoulli(p, q float64) float64 {
	p = Clamp(p, 0, 1)
	q = ClampProb(q)
	var kl float64
	if p > 0 {
		kl += p * math.Log(p/q)
	}
	if p < 1 {
		kl += (1 - p) * math.Log((1-p)/(1-q))
	}
	return kl
}

// LogBinomCoeff returns log C(n, k) using lgamma, valid for large n.
func LogBinomCoeff(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}

// BinomPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogBinomCoeff(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lp)
}

// BinomCDF returns P(X <= k) for X ~ Binomial(n, p), summing PMF terms
// directly. n in this repository is the number of sources observing one
// object (tens to hundreds), so the direct sum is both exact enough and
// fast.
func BinomCDF(n, k int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	var c float64
	for i := 0; i <= k; i++ {
		c += BinomPMF(n, i, p)
	}
	return Clamp(c, 0, 1)
}

// BinomTailAbove returns P(X > k) = 1 - CDF(k) for X ~ Binomial(n, p),
// summing whichever tail is shorter for accuracy.
func BinomTailAbove(n, k int, p float64) float64 {
	if k < 0 {
		return 1
	}
	if k >= n {
		return 0
	}
	if k <= n/2 {
		return Clamp(1-BinomCDF(n, k, p), 0, 1)
	}
	var t float64
	for i := k + 1; i <= n; i++ {
		t += BinomPMF(n, i, p)
	}
	return Clamp(t, 0, 1)
}

// NormalQuantile returns the quantile function (inverse CDF) of the
// standard normal distribution, using the Acklam rational approximation
// (relative error < 1.15e-9 over (0,1)).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail regions.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// ChiSquareQuantile returns the p-quantile of the chi-square
// distribution with k degrees of freedom via the Wilson–Hilferty cube
// approximation, which is accurate to a few percent for k >= 2 — good
// enough for CATD's confidence weights, which only need the right order
// of magnitude.
func ChiSquareQuantile(p float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	z := NormalQuantile(p)
	kf := float64(k)
	t := 1 - 2/(9*kf) + z*math.Sqrt(2/(9*kf))
	q := kf * t * t * t
	if q < 0 {
		return 0
	}
	return q
}

// MaxAbsDiff returns max_i |a[i]-b[i]|; slices must have equal length.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// SoftThreshold applies the soft-thresholding (shrinkage) operator used
// by proximal L1 steps: sign(x)*max(|x|-t, 0).
func SoftThreshold(x, t float64) float64 {
	switch {
	case x > t:
		return x - t
	case x < -t:
		return x + t
	default:
		return 0
	}
}
