package optim

import (
	"math"
	"testing"

	"slimfast/internal/mathx"
)

// quadratic builds a per-example gradient for F(w) = mean_i (w - t_i)^2/2
// whose minimizer is mean(t).
func quadratic(targets []float64) GradFunc {
	return func(i int, w []float64, g *Sparse) {
		for j := range w {
			g.Add(j, w[j]-targets[i])
		}
	}
}

func TestMinimizeQuadratic(t *testing.T) {
	targets := []float64{1, 2, 3, 4, 5}
	w := []float64{10}
	cfg := DefaultConfig()
	cfg.Epochs = 400
	cfg.LearningRate = 0.1
	res, err := Minimize(len(targets), w, quadratic(targets), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-3) > 0.1 {
		t.Errorf("w = %v, want ~3 (res %+v)", w[0], res)
	}
}

func TestMinimizeAdaGrad(t *testing.T) {
	targets := []float64{-2, -2, -2, -2}
	w := []float64{5}
	cfg := DefaultConfig()
	cfg.Method = AdaGrad
	cfg.Epochs = 500
	cfg.LearningRate = 1.0
	if _, err := Minimize(len(targets), w, quadratic(targets), cfg); err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-(-2)) > 0.1 {
		t.Errorf("AdaGrad w = %v, want ~-2", w[0])
	}
}

func TestMinimizeL2ShrinksTowardZero(t *testing.T) {
	targets := []float64{4, 4, 4, 4}
	w := []float64{0}
	cfg := DefaultConfig()
	cfg.Epochs = 500
	cfg.LearningRate = 0.1
	cfg.L2 = 1.0
	if _, err := Minimize(len(targets), w, quadratic(targets), cfg); err != nil {
		t.Fatal(err)
	}
	// Minimizer of (w-4)^2/2 + w^2/2 is 2.
	if math.Abs(w[0]-2) > 0.1 {
		t.Errorf("ridge solution = %v, want ~2", w[0])
	}
}

func TestMinimizeL1SparsifiesIrrelevantCoord(t *testing.T) {
	// Coordinate 0 carries signal; coordinate 1 is touched with zero
	// gradient, so the (lazy) L1 prox should shrink it to zero.
	grad := func(i int, w []float64, g *Sparse) {
		g.Add(0, w[0]-3)
		g.Add(1, 0)
	}
	w := []float64{0, 0.5}
	cfg := DefaultConfig()
	cfg.Epochs = 300
	cfg.LearningRate = 0.1
	cfg.L1 = 0.05
	if _, err := Minimize(10, w, grad, cfg); err != nil {
		t.Fatal(err)
	}
	if w[1] != 0 {
		t.Errorf("L1 should zero the unused coordinate, got %v", w[1])
	}
	if math.Abs(w[0]-3) > 0.6 {
		t.Errorf("active coordinate = %v, want near 3", w[0])
	}
}

func TestMinimizeConvergenceFlag(t *testing.T) {
	targets := []float64{1, 1}
	w := []float64{1} // already at optimum
	cfg := DefaultConfig()
	cfg.Tolerance = 1e-6
	res, err := Minimize(len(targets), w, quadratic(targets), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("should converge immediately: %+v", res)
	}
	if res.Epochs > 2 {
		t.Errorf("too many epochs: %d", res.Epochs)
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	targets := []float64{1, 5, 9}
	run := func() float64 {
		w := []float64{0}
		cfg := DefaultConfig()
		cfg.Epochs = 10
		cfg.Tolerance = 0 // force all epochs
		_, _ = Minimize(len(targets), w, quadratic(targets), cfg)
		return w[0]
	}
	if run() != run() {
		t.Error("same seed must give identical trajectories")
	}
}

func TestMinimizeZeroExamples(t *testing.T) {
	w := []float64{7}
	res, err := Minimize(0, w, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || w[0] != 7 {
		t.Error("zero examples should be a converged no-op")
	}
}

func TestConfigValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{Epochs: 0, LearningRate: 1},
		{Epochs: 1, LearningRate: 0},
		{Epochs: 1, LearningRate: 1, L1: -1},
		{Epochs: 1, LearningRate: 1, L2: -1},
		{Epochs: 1, LearningRate: 1, Decay: -1},
		{Epochs: 1, LearningRate: nan},
		{Epochs: 1, LearningRate: inf},
		{Epochs: 1, LearningRate: -inf},
		{Epochs: 1, LearningRate: 1, L1: nan},
		{Epochs: 1, LearningRate: 1, L1: inf},
		{Epochs: 1, LearningRate: 1, L1: -inf},
		{Epochs: 1, LearningRate: 1, L2: nan},
		{Epochs: 1, LearningRate: 1, L2: inf},
		{Epochs: 1, LearningRate: 1, L2: -inf},
		{Epochs: 1, LearningRate: 1, Decay: nan},
		{Epochs: 1, LearningRate: 1, Decay: inf},
		{Epochs: 1, LearningRate: 1, Decay: -inf},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// logisticSmooth returns the batch gradient function for a tiny
// 1-feature logistic regression with targets y in {0,1}.
func logisticSmooth(xs []float64, ys []int) BatchGradFunc {
	return func(w, grad []float64) float64 {
		var loss float64
		n := float64(len(xs))
		for i, x := range xs {
			p := mathx.Logistic(w[0] * x)
			y := float64(ys[i])
			loss += -(y*math.Log(mathx.ClampProb(p)) + (1-y)*math.Log(mathx.ClampProb(1-p)))
			grad[0] += (p - y) * x / n
		}
		return loss / n
	}
}

func TestProximalGradientLogistic(t *testing.T) {
	xs := []float64{1, 1, 1, 1, -1, -1, -1, -1}
	ys := []int{1, 1, 1, 0, 0, 0, 0, 1}
	w := []float64{0}
	res, err := ProximalGradient(w, logisticSmooth(xs, ys), 0, 500, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	// 6/8 agreement: optimum w satisfies logistic(w) = 0.75, w = log 3.
	if math.Abs(w[0]-math.Log(3)) > 1e-3 {
		t.Errorf("w = %v, want log 3 ~= 1.0986 (res %+v)", w[0], res)
	}
}

func TestProximalGradientL1KillsWeakSignal(t *testing.T) {
	xs := []float64{1, 1, -1, -1}
	ys := []int{1, 0, 0, 1} // no signal at all
	w := []float64{2}
	if _, err := ProximalGradient(w, logisticSmooth(xs, ys), 0.5, 500, 1e-10); err != nil {
		t.Fatal(err)
	}
	if w[0] != 0 {
		t.Errorf("strong L1 on pure noise should zero the weight, got %v", w[0])
	}
}

func TestProximalGradientErrors(t *testing.T) {
	if _, err := ProximalGradient([]float64{0}, nil, 0, 0, 1e-6); err == nil {
		t.Error("maxIter=0 should error")
	}
	if _, err := ProximalGradient([]float64{0}, nil, -1, 10, 1e-6); err == nil {
		t.Error("negative l1 should error")
	}
}

func TestProximalGradientMonotoneLoss(t *testing.T) {
	xs := []float64{2, 1, -1, -2, 0.5, -0.5}
	ys := []int{1, 1, 0, 0, 1, 0}
	w := []float64{0}
	sm := logisticSmooth(xs, ys)
	g := make([]float64, 1)
	prevLoss := sm(w, g)
	for i := 0; i < 20; i++ {
		if _, err := ProximalGradient(w, sm, 0, 1, 0); err != nil {
			t.Fatal(err)
		}
		for j := range g {
			g[j] = 0
		}
		loss := sm(w, g)
		if loss > prevLoss+1e-9 {
			t.Fatalf("loss increased at iter %d: %v -> %v", i, prevLoss, loss)
		}
		prevLoss = loss
	}
}

// sparseEntries lists an accumulator's (coordinate, value bits) pairs
// in first-touch order.
func sparseEntries(s *Sparse) [][2]uint64 {
	out := make([][2]uint64, s.Len())
	for i := range out {
		j, v := s.At(i)
		out[i] = [2]uint64{uint64(j), math.Float64bits(v)}
	}
	return out
}

// TestSparseAddAllMatchesAdd: AddAll is one Add per pair, whether it
// lands on a fresh accumulator (its stamps deferred) or a used one, and
// whatever Add or AddAll follows it before the next Reset.
func TestSparseAddAllMatchesAdd(t *testing.T) {
	type op struct {
		coords []int32
		vals   []float64
	}
	for _, tc := range []struct {
		name string
		ops  []op
	}{
		{"fresh", []op{{[]int32{5, 0, 9}, []float64{0.1, -2, 3}}}},
		{"fresh-then-add", []op{
			{[]int32{5, 0, 9}, []float64{0.1, -2, 3}},
			{[]int32{9}, []float64{0.7}},
			{[]int32{2}, []float64{1}},
			{[]int32{5}, []float64{1e-17}},
		}},
		{"addall-twice", []op{
			{[]int32{5, 0, 9}, []float64{0.1, -2, 3}},
			{[]int32{0, 12, 5}, []float64{0.25, 4, 0.3}},
		}},
		{"beyond-size", []op{
			{[]int32{100, 3}, []float64{1, 2}},
			{[]int32{3, 200}, []float64{0.5, 6}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sized := range []bool{false, true} {
				got, want := NewSparse(), NewSparse()
				if sized {
					got, want = NewSparseSized(16), NewSparseSized(16)
				}
				// A stale generation must not leak into the next one.
				got.AddAll([]int32{9, 5}, []float64{7, 7})
				got.Reset()
				want.Add(9, 7)
				want.Reset()
				for i, o := range tc.ops {
					if i == 0 || len(o.coords) > 1 {
						got.AddAll(o.coords, o.vals)
					} else {
						got.Add(int(o.coords[0]), o.vals[0])
					}
					for k, c := range o.coords {
						want.Add(int(c), o.vals[k])
					}
				}
				g, w := sparseEntries(got), sparseEntries(want)
				if len(g) != len(w) {
					t.Fatalf("sized=%v: AddAll entries %v, Add entries %v", sized, g, w)
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("sized=%v: AddAll entries %v, Add entries %v", sized, g, w)
					}
				}
			}
		})
	}
}
