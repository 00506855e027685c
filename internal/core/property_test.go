package core

import (
	"math"
	"testing"
	"testing/quick"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

// propDataset builds a moderate instance for property checks: 6
// sources, 8 objects, 3 values, dense-ish observations derived from a
// seed byte slice so testing/quick can explore different structures.
func propDataset(obsPattern []byte) *data.Dataset {
	b := data.NewBuilder("prop")
	sources := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	objects := []string{"o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7"}
	values := []string{"x", "y", "z"}
	if len(obsPattern) == 0 {
		obsPattern = []byte{1}
	}
	k := 0
	for _, s := range sources {
		for _, o := range objects {
			v := obsPattern[k%len(obsPattern)]
			k++
			if v%4 == 3 {
				continue // skip: sparse pattern
			}
			b.ObserveNames(s, o, values[int(v)%3])
		}
	}
	b.SetFeature(b.Source("s0"), "f0")
	b.SetFeature(b.Source("s1"), "f0")
	b.SetFeature(b.Source("s2"), "f1")
	return b.Freeze()
}

// TestQuickPosteriorIsDistribution: for any weights, every object's
// posterior is a probability distribution over its domain.
func TestQuickPosteriorIsDistribution(t *testing.T) {
	f := func(obsPattern []byte, w0, w1, w2 float64) bool {
		ds := propDataset(obsPattern)
		m, err := Compile(ds, DefaultOptions())
		if err != nil {
			return false
		}
		w := make([]float64, len(m.w))
		raw := []float64{w0, w1, w2}
		for i := range w {
			w[i] = math.Mod(raw[i%3], 10)
			if math.IsNaN(w[i]) {
				w[i] = 0
			}
		}
		setWeights(t, m, w)
		res := inferAll(t, m)
		for o := 0; o < ds.NumObjects(); o++ {
			post := res.Posterior(data.ObjectID(o))
			if post == nil {
				continue
			}
			var sum float64
			for v, p := range post {
				if p < 0 || p > 1+1e-12 {
					return false
				}
				// Posterior only over observed domain values.
				found := false
				for _, d := range ds.Domain(data.ObjectID(o)) {
					if d == v {
						found = true
					}
				}
				if !found {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickAccuracyMatchesSigma: A_s = logistic(σ_s) for any weights
// (Equation 3 consistency).
func TestQuickAccuracyMatchesSigma(t *testing.T) {
	f := func(w0, w1, w2, w3 float64) bool {
		ds := propDataset([]byte{0, 1, 2})
		m, err := Compile(ds, DefaultOptions())
		if err != nil {
			return false
		}
		w := make([]float64, len(m.w))
		raw := []float64{w0, w1, w2, w3}
		for i := range w {
			w[i] = math.Mod(raw[i%4], 8)
			if math.IsNaN(w[i]) {
				w[i] = 0
			}
		}
		setWeights(t, m, w)
		acc := m.SourceAccuracies()
		for s := range acc {
			want := mathx.Logistic(m.Sigma(data.SourceID(s)))
			if math.Abs(acc[s]-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickSigmaShiftMonotonicity: raising one source's weight never
// decreases the posterior of the values that source voted for.
func TestQuickSigmaShiftMonotonicity(t *testing.T) {
	f := func(obsPattern []byte, delta float64) bool {
		delta = math.Abs(math.Mod(delta, 5))
		ds := propDataset(obsPattern)
		m, err := Compile(ds, DefaultOptions())
		if err != nil {
			return false
		}
		before := inferAll(t, m)
		w := make([]float64, len(m.w))
		w[0] = delta // boost s0
		setWeights(t, m, w)
		after := inferAll(t, m)
		for _, idx := range ds.SourceObservationIndices(0) {
			ob := ds.Observations[idx]
			pa, pb := after.Posterior(ob.Object), before.Posterior(ob.Object)
			if pa == nil || pb == nil {
				continue
			}
			if pa[ob.Value]+1e-12 < pb[ob.Value] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickEMUnitsBounds: Algorithm 1's per-instance output is always
// within [0, |O|] (each object contributes at most 1 unit) for any
// accuracy.
func TestQuickEMUnitsBounds(t *testing.T) {
	f := func(obsPattern []byte, acc float64) bool {
		acc = mathx.Clamp(math.Abs(math.Mod(acc, 1)), 0.01, 0.99)
		ds := propDataset(obsPattern)
		u := EMUnits(ds, acc, false)
		return u >= 0 && u <= float64(ds.NumObjects())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickAverageAccuracyInRange: the matrix-completion estimate is
// always a valid accuracy in [0.5, 1] regardless of the instance.
func TestQuickAverageAccuracyInRange(t *testing.T) {
	f := func(obsPattern []byte, weighted bool) bool {
		ds := propDataset(obsPattern)
		a := EstimateAverageAccuracy(ds, weighted)
		return a >= 0.5 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickInferMatchesPosteriorArgmax: Infer's MAP value always has
// maximal posterior probability.
func TestQuickInferMatchesPosteriorArgmax(t *testing.T) {
	f := func(obsPattern []byte, w0 float64) bool {
		ds := propDataset(obsPattern)
		m, err := Compile(ds, DefaultOptions())
		if err != nil {
			return false
		}
		w := make([]float64, len(m.w))
		for i := range w {
			w[i] = math.Mod(w0*float64(i+1), 3)
			if math.IsNaN(w[i]) {
				w[i] = 0
			}
		}
		setWeights(t, m, w)
		res, err := m.Infer(nil)
		if err != nil {
			return false
		}
		for o, v := range res.Values {
			post := res.Posterior(o)
			for _, p := range post {
				if p > post[v]+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
