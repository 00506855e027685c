package optim

import (
	"math"
	"testing"
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
	res, err := Minimize(len(targets), w, quadratic(targets), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-3) > 0.1 {
		t.Errorf("w = %v, want ~3 (res %+v)", w[0], res)
	}
}

func TestMinimizeL2ShrinksTowardZero(t *testing.T) {
	targets := []float64{4, 4, 4, 4}
	w := []float64{0}
	cfg := DefaultConfig()
	cfg.Epochs = 500
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
	res, err := Minimize(len(targets), w, quadratic(targets), DefaultConfig())
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
		{Epochs: 0},
		{Epochs: 1, L1: -1},
		{Epochs: 1, L2: -1},
		{Epochs: 1, L1: nan},
		{Epochs: 1, L1: inf},
		{Epochs: 1, L1: -inf},
		{Epochs: 1, L2: nan},
		{Epochs: 1, L2: inf},
		{Epochs: 1, L2: -inf},
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
