// Package optim provides the stochastic gradient descent that fits
// SLiMFast's logistic-regression model (the algorithm the paper runs
// on DeepDive's sampler), plus the sparse gradient accumulator its
// per-example callbacks write into.
//
// Minimize minimizes an empirical objective of the form
//
//	F(w) = (1/n) Σ_i f_i(w) + (λ2/2)||w||² + λ1||w||₁
//
// given only per-example gradient callbacks, so it is agnostic to the
// model structure.
package optim

import (
	"errors"
	"math"

	"slimfast/internal/mathx"
	"slimfast/internal/randx"
)

// The step-size schedule and the stopping rule. They converge reliably
// on every dataset in the evaluation without per-dataset tuning.
const (
	// learningRate is the initial step size; the step at update t is
	// learningRate / (1 + decay·t).
	learningRate = 0.3
	decay        = 0.01

	// tolerance stops a run early once the max |Δw| over an epoch
	// drops below it.
	tolerance = 1e-4
)

// Config controls an optimization run. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	Epochs int     // maximum passes over the data
	L2     float64 // ridge penalty λ2
	L1     float64 // lasso penalty λ1 (applied proximally)
	Seed   int64   // shuffle seed, for reproducibility
}

// DefaultConfig returns 50 epochs, no penalty and seed 1.
func DefaultConfig() Config {
	return Config{Epochs: 50, Seed: 1}
}

// Validate reports whether the configuration is usable. The penalty
// checks are written so that NaN fails them.
func (c Config) Validate() error {
	if c.Epochs <= 0 {
		return errors.New("optim: Epochs must be positive")
	}
	if !finiteNonNegative(c.L1) || !finiteNonNegative(c.L2) {
		return errors.New("optim: penalties must be finite and non-negative")
	}
	return nil
}

// finiteNonNegative reports whether x is in [0, +Inf); NaN is not.
func finiteNonNegative(x float64) bool {
	return x >= 0 && !math.IsInf(x, 1)
}

// Sparse accumulates a sparse gradient: per-example losses in data
// fusion touch only the weights of the sources and features involved in
// one object, so updates must not pay O(len(w)).
//
// The layout is a stamp/touch-list accumulator: idx lists the touched
// coordinates in first-touch order and val holds their sums in the same
// order; stamp[j] records the Reset generation that last touched
// coordinate j and pos[j] its position in idx. Add and At are
// branch-plus-array-index — no map hashing, no per-coordinate
// allocation — and Reset is O(1) (bump the generation). The
// accumulator grows to the largest coordinate it has seen and is reused
// across steps, so the steady state allocates nothing; size it up front
// with NewSparseSized to avoid even the warm-up growth. Coordinates
// must fit in an int32.
type Sparse struct {
	idx   []int32
	val   []float64
	stamp []uint64
	pos   []int32
	gen   uint64
	// stamped counts the leading idx entries whose stamp and pos are
	// set; the rest came from a fresh AddAll (see stampPending).
	stamped int
}

// NewSparse returns an empty accumulator that grows on first touch.
func NewSparse() *Sparse { return &Sparse{gen: 1} }

// NewSparseSized returns an accumulator pre-sized for coordinates
// [0, n) and for touching all of them, so no hot-path growth ever
// happens.
func NewSparseSized(n int) *Sparse {
	s := NewSparse()
	s.grow(n)
	s.idx = make([]int32, 0, n)
	s.val = make([]float64, 0, n)
	return s
}

// grow extends the per-coordinate slabs to cover at least n
// coordinates.
func (s *Sparse) grow(n int) {
	if n <= len(s.stamp) {
		return
	}
	if n-1 > math.MaxInt32 {
		panic("optim: Sparse coordinate out of int32 range")
	}
	stamp := make([]uint64, n)
	copy(stamp, s.stamp)
	s.stamp = stamp
	pos := make([]int32, n)
	copy(pos, s.pos)
	s.pos = pos
}

// Reset clears the accumulator for reuse.
func (s *Sparse) Reset() {
	s.idx = s.idx[:0]
	s.val = s.val[:0]
	s.stamped = 0
	s.gen++
}

// Add accumulates v into coordinate j.
func (s *Sparse) Add(j int, v float64) {
	if j >= len(s.stamp) {
		s.grow(j + 1)
	}
	if s.stamped < len(s.idx) {
		s.stampPending()
	}
	if s.stamp[j] == s.gen {
		s.val[s.pos[j]] += v
		return
	}
	s.stamp[j] = s.gen
	s.pos[j] = int32(len(s.idx))
	s.idx = append(s.idx, int32(j))
	s.val = append(s.val, v)
	s.stamped = len(s.idx)
}

// AddAll accumulates vals[i] into coordinate coords[i] for every i, in
// order: the same sums and first-touch order as one Add per pair, in
// one call per example. The coordinates must be distinct. On a freshly
// Reset accumulator, the common case of one AddAll per example, both
// lists are appended as they are and the membership stamps are
// deferred until a later Add or AddAll needs them.
func (s *Sparse) AddAll(coords []int32, vals []float64) {
	vals = vals[:len(coords)]
	if len(s.idx) > 0 {
		for i, c := range coords {
			s.Add(int(c), vals[i])
		}
		return
	}
	s.idx = append(s.idx, coords...)
	s.val = append(s.val, vals...)
}

// stampPending stamps the coordinates a fresh AddAll listed without
// stamps, so membership checks see them.
func (s *Sparse) stampPending() {
	hi := int32(-1)
	for _, j := range s.idx[s.stamped:] {
		hi = max(hi, j)
	}
	s.grow(int(hi) + 1)
	for p := s.stamped; p < len(s.idx); p++ {
		j := s.idx[p]
		s.stamp[j] = s.gen
		s.pos[j] = int32(p)
	}
	s.stamped = len(s.idx)
}

// Len returns the number of touched coordinates.
func (s *Sparse) Len() int { return len(s.idx) }

// At returns the i-th touched (coordinate, value) pair in first-touch
// order.
func (s *Sparse) At(i int) (int, float64) {
	return int(s.idx[i]), s.val[i]
}

// GradFunc computes the gradient of one example's loss f_i at w,
// accumulating into grad. Implementations should only touch the
// coordinates the example involves.
type GradFunc func(example int, w []float64, grad *Sparse)

// Result reports what an optimization run did.
type Result struct {
	Epochs    int     // epochs actually run
	Converged bool    // true when the tolerance stop fired
	LastDelta float64 // max |Δw| over the final epoch
}

// Minimize runs stochastic optimization over n examples, updating w in
// place, and returns run statistics. The examples are visited in a
// fresh random order each epoch.
//
// Regularization is applied lazily: a coordinate is penalized only on
// the steps whose example touches it. This is the standard
// sparse-data approximation — it keeps the per-step cost proportional
// to the example's support instead of len(w).
func Minimize(n int, w []float64, grad GradFunc, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if n == 0 {
		return Result{Converged: true}, nil
	}
	rng := randx.New(cfg.Seed)
	g := NewSparseSized(len(w))
	prev := make([]float64, len(w))
	order := make([]int, n) // reused across epochs; same stream as Shuffled
	var res Result
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		copy(prev, w)
		rng.ShuffleRange(order)
		for _, i := range order {
			g.Reset()
			grad(i, w, g)
			lr := learningRate / (1 + decay*float64(step))
			step++
			for p, j := range g.idx {
				w[j] -= lr * (g.val[p] + cfg.L2*w[j])
				if cfg.L1 > 0 {
					w[j] = mathx.SoftThreshold(w[j], lr*cfg.L1)
				}
			}
		}
		res.Epochs = epoch + 1
		res.LastDelta = mathx.MaxAbsDiff(w, prev)
		if res.LastDelta < tolerance {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}
