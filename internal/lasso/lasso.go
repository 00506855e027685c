// Package lasso computes Lasso paths over SLiMFast's domain-specific
// features (Section 5.3.1 of the paper, Figures 6 and 9): how each
// feature's weight evolves as the L1 regularization penalty relaxes.
// Features that activate early (at high penalties) and keep growing are
// the ones most predictive of source accuracy.
//
// The path is computed on the feature-only accuracy model: per-source
// correctness rates t_s (from ground truth) are regressed on the
// source's Boolean features with a weighted logistic model
//
//	A_s = logistic(b + Σ_k w_k f_sk)
//
// minimizing Σ_s n_s·CE(t_s, A_s)/N + λ·||w||₁ by proximal gradient,
// for a descending grid of λ. Per-source indicator weights are excluded
// so the features alone must explain accuracy — that is what makes the
// path interpretable.
package lasso

import (
	"errors"
	"math"
	"sort"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

// Path holds feature-weight trajectories along the regularization
// grid. Weights[i][k] is feature k's weight at Lambdas[i]; the grid is
// sorted descending (strongest penalty first), so plotting against
// Mu[i] = 1 - i/(len-1) matches the paper's x-axis convention ("higher
// x = lower penalty").
type Path struct {
	FeatureNames []string
	Lambdas      []float64
	Mu           []float64
	Intercepts   []float64
	Weights      [][]float64
}

// Options controls the path computation.
type Options struct {
	// Steps is the number of grid points (default 20).
	Steps int
	// MaxIter bounds each proximal-gradient solve (default 500).
	MaxIter int
}

// DefaultOptions returns the settings used by the Figure 6/9 benches.
func DefaultOptions() Options {
	return Options{Steps: 20, MaxIter: 500}
}

// The grid and the solver's stopping rule.
const (
	// lambdaMinRatio sets the weakest penalty, lambdaMax·lambdaMinRatio.
	// lambdaMax itself comes from the gradient at zero: the smallest
	// penalty that keeps all weights at zero.
	lambdaMinRatio = 1e-3
	// solveTol stops a solve once the max |Δw| of an iteration drops
	// below it.
	solveTol = 1e-7
)

// BatchGradFunc computes the full-batch gradient of the smooth part of
// the objective at w into grad (zeroed, len(w)) and returns the smooth
// loss value.
type BatchGradFunc func(w []float64, grad []float64) float64

// Compute fits the path for the dataset using the given ground truth to
// derive per-source correctness rates.
func Compute(ds *data.Dataset, train data.TruthMap, opts Options) (*Path, error) {
	if ds.NumFeatures() == 0 {
		return nil, errors.New("lasso: dataset has no domain features")
	}
	if len(train) == 0 {
		return nil, errors.New("lasso: ground truth required")
	}
	if opts.Steps <= 1 {
		return nil, errors.New("lasso: need at least 2 steps")
	}

	// Per-source correctness counts on labeled objects.
	nS := ds.NumSources()
	corr := make([]float64, nS)
	tot := make([]float64, nS)
	for _, ob := range ds.Observations {
		truth, ok := train[ob.Object]
		if !ok {
			continue
		}
		tot[ob.Source]++
		if ob.Value == truth {
			corr[ob.Source]++
		}
	}
	var totalObs float64
	for s := 0; s < nS; s++ {
		totalObs += tot[s]
	}
	if totalObs == 0 {
		return nil, errors.New("lasso: no labeled observations")
	}

	nK := ds.NumFeatures()
	// w layout: [0] intercept (unpenalized), [1..nK] feature weights.
	smooth := func(w []float64, grad []float64) float64 {
		var loss float64
		for s := 0; s < nS; s++ {
			if tot[s] == 0 {
				continue
			}
			sigma := w[0]
			for _, k := range ds.SourceFeatures[s] {
				sigma += w[1+int(k)]
			}
			a := mathx.Logistic(sigma)
			t := corr[s] / tot[s]
			loss += tot[s] * -(t*math.Log(mathx.ClampProb(a)) + (1-t)*math.Log(mathx.ClampProb(1-a)))
			r := tot[s] * (a - t) / totalObs
			grad[0] += r
			for _, k := range ds.SourceFeatures[s] {
				grad[1+int(k)] += r
			}
		}
		return loss / totalObs
	}

	// lambda-max: with w=0 (after fitting the intercept), the largest
	// |gradient| coordinate bounds the penalty at which any feature
	// activates.
	w0 := make([]float64, 1+nK)
	// Fit the intercept alone first.
	interceptOnly := func(w []float64, grad []float64) float64 {
		g := make([]float64, 1+nK)
		l := smooth(append([]float64{w[0]}, make([]float64, nK)...), g)
		grad[0] = g[0]
		return l
	}
	b := []float64{0}
	if _, err := proxL1ExceptFirst(b, interceptOnly, 0, 300, 1e-9); err != nil {
		return nil, err
	}
	w0[0] = b[0]
	g := make([]float64, 1+nK)
	smooth(w0, g)
	var lambdaMax float64
	for k := 1; k <= nK; k++ {
		if a := math.Abs(g[k]); a > lambdaMax {
			lambdaMax = a
		}
	}
	if lambdaMax == 0 {
		lambdaMax = 1
	}
	lambdaMax *= 1.05 // all-zero at the first grid point

	p := &Path{
		FeatureNames: append([]string{}, ds.FeatureNames...),
		Lambdas:      make([]float64, opts.Steps),
		Mu:           make([]float64, opts.Steps),
		Intercepts:   make([]float64, opts.Steps),
		Weights:      make([][]float64, opts.Steps),
	}
	// Warm-started descending grid (log spaced).
	w := make([]float64, 1+nK)
	for i := 0; i < opts.Steps; i++ {
		frac := float64(i) / float64(opts.Steps-1)
		lambda := lambdaMax * math.Pow(lambdaMinRatio, frac)
		p.Lambdas[i] = lambda
		p.Mu[i] = frac
		// Penalize only feature coordinates: the intercept stays
		// unpenalized.
		if _, err := proxL1ExceptFirst(w, smooth, lambda, opts.MaxIter, solveTol); err != nil {
			return nil, err
		}
		p.Intercepts[i] = w[0]
		row := make([]float64, nK)
		copy(row, w[1:])
		p.Weights[i] = row
	}
	return p, nil
}

// proxL1ExceptFirst minimizes smooth(w) + l1·||w[1:]||₁ with ISTA
// proximal gradient steps and backtracking line search: the
// soft-threshold applies to every coordinate except index 0 (the
// intercept), so with l1 = 0 it is plain gradient descent. A
// deterministic solution per penalty keeps the path smooth. It keeps
// two swapped gradient buffers — the accepted trial's gradient becomes
// the next iteration's gradient, so the inner loop neither allocates
// nor re-evaluates smooth at the accepted point — and it caps
// backtracking at 40 halvings per outer iteration: a NaN/Inf trial
// loss fails every quadratic-bound comparison, and a loop that stopped
// only on lr < 1e-12 burned ~40 halvings on every outer iteration, so
// the step size never recovered through the 1.1× growth. It returns
// the number of iterations run.
func proxL1ExceptFirst(w []float64, smooth BatchGradFunc, l1 float64, maxIter int, tol float64) (int, error) {
	if maxIter <= 0 {
		return 0, errors.New("lasso: maxIter must be positive")
	}
	grad := make([]float64, len(w))
	next := make([]float64, len(w))
	gNext := make([]float64, len(w))
	lr := 1.0
	loss := smooth(w, grad)
	for iter := 0; iter < maxIter; iter++ {
		var lossNext float64
		for try := 0; ; try++ {
			next[0] = w[0] - lr*grad[0]
			for j := 1; j < len(w); j++ {
				next[j] = mathx.SoftThreshold(w[j]-lr*grad[j], lr*l1)
			}
			for j := range gNext {
				gNext[j] = 0
			}
			lossNext = smooth(next, gNext)
			var lin, quad float64
			for j := range w {
				d := next[j] - w[j]
				lin += grad[j] * d
				quad += d * d
			}
			if lossNext <= loss+lin+quad/(2*lr)+1e-12 || try >= 40 {
				break
			}
			lr /= 2
		}
		delta := mathx.MaxAbsDiff(next, w)
		copy(w, next)
		grad, gNext = gNext, grad
		loss = lossNext
		if delta < tol {
			return iter + 1, nil
		}
		lr *= 1.1
	}
	return maxIter, nil
}

// ActivationOrder returns feature indices sorted by when they first
// obtain a non-zero weight along the path (earliest activation = most
// important), breaking ties by final absolute weight. Features that
// never activate come last.
func (p *Path) ActivationOrder(tol float64) []int {
	n := len(p.FeatureNames)
	first := make([]int, n)
	for k := 0; k < n; k++ {
		first[k] = len(p.Weights) // never activated
		for i := range p.Weights {
			if math.Abs(p.Weights[i][k]) > tol {
				first[k] = i
				break
			}
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	last := len(p.Weights) - 1
	sort.SliceStable(idx, func(a, b int) bool {
		if first[idx[a]] != first[idx[b]] {
			return first[idx[a]] < first[idx[b]]
		}
		return math.Abs(p.Weights[last][idx[a]]) > math.Abs(p.Weights[last][idx[b]])
	})
	return idx
}

// FinalWeights returns the weights at the weakest penalty (the last
// grid point).
func (p *Path) FinalWeights() []float64 {
	if len(p.Weights) == 0 {
		return nil
	}
	return p.Weights[len(p.Weights)-1]
}
