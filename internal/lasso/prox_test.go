package lasso

import (
	"math"
	"testing"

	"slimfast/internal/mathx"
)

// pathologicalSmooth builds a batch-gradient function whose loss turns
// NaN the moment any coordinate leaves a microscopic basin, while the
// gradient stays finite and enormous. Every quadratic-bound comparison
// against a NaN trial loss is false, so an uncapped backtracking loop
// halves lr ~40 times on every outer iteration and the step size can
// never recover through the 1.1× growth.
func pathologicalSmooth(calls *int) BatchGradFunc {
	return func(w []float64, grad []float64) float64 {
		*calls++
		loss := 0.0
		for j := range w {
			grad[j] = 2e30 * w[j]
			loss += 1e30 * w[j] * w[j]
		}
		if loss > 1e3 {
			return math.NaN()
		}
		return loss
	}
}

// TestProxL1BacktrackCapped is the regression test for the uncapped
// backtracking loop: proxL1ExceptFirst's inner loop used to terminate
// only on lr < 1e-12, so a NaN/Inf trial loss (which fails every
// quadratic-bound comparison) burned ~40 halvings on every outer
// iteration and the step size never recovered. The solver now caps
// backtracking at try >= 40: it must run to maxIter with a bounded
// number of smooth evaluations.
func TestProxL1BacktrackCapped(t *testing.T) {
	const maxIter = 5
	var calls int
	w := []float64{1e-14, 1e-14}
	iters, err := proxL1ExceptFirst(w, pathologicalSmooth(&calls), 1e-3, maxIter, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 || iters > maxIter {
		t.Errorf("proxL1ExceptFirst ran %d iters, want within [1, %d]", iters, maxIter)
	}
	// At most 41 trial evaluations per outer iteration (initial try +
	// 40 halvings) plus the one gradient evaluation at the start. An
	// uncapped loop keyed on lr alone either hangs or burns an
	// lr-dependent number of halvings here.
	if limit := iters*41 + 1; calls > limit {
		t.Errorf("proxL1ExceptFirst evaluated smooth %d times over %d iters, want <= %d (backtracking not capped)", calls, iters, limit)
	}
}

// logisticSmooth returns the batch gradient function for a tiny
// logistic regression with an intercept, logistic(w[0] + w[1]·x), and
// targets y in {0,1}.
func logisticSmooth(xs []float64, ys []int) BatchGradFunc {
	return func(w, grad []float64) float64 {
		var loss float64
		n := float64(len(xs))
		for i, x := range xs {
			p := mathx.Logistic(w[0] + w[1]*x)
			y := float64(ys[i])
			loss += -(y*math.Log(mathx.ClampProb(p)) + (1-y)*math.Log(mathx.ClampProb(1-p)))
			grad[0] += (p - y) / n
			grad[1] += (p - y) * x / n
		}
		return loss / n
	}
}

func TestProxL1Logistic(t *testing.T) {
	xs := []float64{1, 1, 1, 1, -1, -1, -1, -1}
	ys := []int{1, 1, 1, 0, 0, 0, 0, 1}
	w := []float64{0, 0}
	iters, err := proxL1ExceptFirst(w, logisticSmooth(xs, ys), 0, 500, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	// 6/8 agreement, symmetric in x: the optimum has intercept 0 and
	// logistic(w1) = 0.75, so w1 = log 3.
	if math.Abs(w[0]) > 1e-3 || math.Abs(w[1]-math.Log(3)) > 1e-3 {
		t.Errorf("w = %v after %d iters, want [0, log 3 ~= 1.0986]", w, iters)
	}
}

func TestProxL1KillsWeakSignal(t *testing.T) {
	xs := []float64{1, 1, -1, -1}
	ys := []int{1, 0, 0, 1} // no signal at all
	w := []float64{0, 2}
	if _, err := proxL1ExceptFirst(w, logisticSmooth(xs, ys), 0.5, 500, 1e-10); err != nil {
		t.Fatal(err)
	}
	if w[1] != 0 {
		t.Errorf("strong L1 on pure noise should zero the weight, got %v", w[1])
	}
}

func TestProxL1MaxIterError(t *testing.T) {
	if _, err := proxL1ExceptFirst([]float64{0}, nil, 0, 0, 1e-6); err == nil {
		t.Error("maxIter=0 should error")
	}
}

func TestProxL1MonotoneLoss(t *testing.T) {
	xs := []float64{2, 1, -1, -2, 0.5, -0.5}
	ys := []int{1, 1, 0, 0, 1, 0}
	w := []float64{0, 0}
	sm := logisticSmooth(xs, ys)
	g := make([]float64, 2)
	prevLoss := sm(w, g)
	for i := 0; i < 20; i++ {
		if _, err := proxL1ExceptFirst(w, sm, 0, 1, 0); err != nil {
			t.Fatal(err)
		}
		clear(g)
		loss := sm(w, g)
		if loss > prevLoss+1e-9 {
			t.Fatalf("loss increased at iter %d: %v -> %v", i, prevLoss, loss)
		}
		prevLoss = loss
	}
}
