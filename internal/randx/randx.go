// Package randx provides the deterministic random-number substrate used
// by the simulators and samplers in this repository. Every experiment
// in the paper reproduction is seeded, so re-running a bench regenerates
// the same table.
//
// The package wraps math/rand with a splitmix-style seed deriver so that
// independent components (dataset generation, train/test splits, SGD
// shuffles, the online learner's epochs) get decorrelated streams from
// one master seed.
package randx

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. It embeds *rand.Rand and adds
// the sampling helpers used by the fusion simulators.
type RNG struct {
	*rand.Rand
}

// New returns a deterministic RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seed))}
}

// splitmix64 advances and mixes a 64-bit state; used to derive
// decorrelated child seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed mixes a master seed with a stream label into a new seed.
// Distinct labels give decorrelated streams.
func DeriveSeed(master int64, label string) int64 {
	h := uint64(master)
	for _, b := range []byte(label) {
		h = splitmix64(h ^ uint64(b))
	}
	return int64(splitmix64(h))
}

// Child returns a new RNG derived from this one's next value and the
// label, for handing decorrelated streams to sub-components.
func (r *RNG) Child(label string) *RNG {
	return New(DeriveSeed(r.Int63(), label))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Categorical samples an index from the (not necessarily normalized)
// non-negative weight vector ws. It panics if all weights are zero or
// the slice is empty, which indicates a programming error upstream.
func (r *RNG) Categorical(ws []float64) int {
	var total float64
	for _, w := range ws {
		if w < 0 {
			panic("randx: negative categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("randx: categorical weights sum to zero")
	}
	u := r.Float64() * total
	var c float64
	for i, w := range ws {
		c += w
		if u < c {
			return i
		}
	}
	return len(ws) - 1
}

// IntnExcept returns a uniform value in [0, n) excluding the value
// except. It panics when n < 2, since no valid draw exists.
func (r *RNG) IntnExcept(n, except int) int {
	if n < 2 {
		panic("randx: IntnExcept needs n >= 2")
	}
	v := r.Intn(n - 1)
	if v >= except {
		v++
	}
	return v
}

// Shuffled returns a new slice [0, n) in random order.
func (r *RNG) Shuffled(n int) []int {
	idx := make([]int, n)
	r.ShuffleRange(idx)
	return idx
}

// ShuffleRange fills idx with [0, len(idx)) and shuffles it in place,
// consuming the same stream as Shuffled(len(idx)) — callers reuse one
// buffer across epochs without changing the visit order.
func (r *RNG) ShuffleRange(idx []int) {
	for i := range idx {
		idx[i] = i
	}
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}

// Mix derives a decorrelated child seed from a master seed and an
// integer stream label via splitmix64; the integer analogue of
// DeriveSeed for hot paths that must not allocate label strings.
func Mix(master, stream int64) int64 {
	return int64(splitmix64(splitmix64(uint64(master)) ^ splitmix64(uint64(stream)+0x9e3779b97f4a7c15)))
}

// SampleWithoutReplacement returns k distinct values from [0, n) in
// random order. It panics when k > n.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("randx: sample size exceeds population")
	}
	idx := r.Shuffled(n)
	return idx[:k]
}

// Zipf returns a sampler over [0, n) with Zipfian skew s >= 0 (s = 0 is
// uniform). Used to generate the long-tailed per-source observation
// counts seen in the real datasets (e.g. Genomics: 1.1 obs/source but
// a few prolific sources).
func (r *RNG) Zipf(n int, s float64) func() int {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -s)
	}
	return func() int { return r.Categorical(weights) }
}
