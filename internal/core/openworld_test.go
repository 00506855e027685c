package core

import (
	"math"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

// openWorldDataset: one contested object plus one unanimous object.
func openWorldDataset() *data.Dataset {
	b := data.NewBuilder("ow")
	b.ObserveNames("s1", "contested", "a")
	b.ObserveNames("s2", "contested", "b")
	b.ObserveNames("s1", "clear", "x")
	b.ObserveNames("s2", "clear", "x")
	b.ObserveNames("s3", "clear", "x")
	return b.Freeze()
}

func TestOpenWorldPosteriorIncludesWildcard(t *testing.T) {
	opts := DefaultOptions()
	opts.OpenWorld = true
	opts.OpenWorldBias = 0
	m, err := Compile(openWorldDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	post := inferAll(t, m).Posterior(0) // contested
	if _, ok := post[data.None]; !ok {
		t.Fatal("open-world posterior missing wildcard")
	}
	// With zero weights and zero bias, all three options are uniform.
	for v, p := range post {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Errorf("P(%d) = %v, want 1/3", v, p)
		}
	}
	var sum float64
	for _, p := range post {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("posterior sums to %v", sum)
	}
}

func TestOpenWorldVeryNegativeBiasMatchesClosedWorld(t *testing.T) {
	ds := openWorldDataset()
	closed, err := Compile(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	owOpts := DefaultOptions()
	owOpts.OpenWorld = true
	owOpts.OpenWorldBias = -50
	open, err := Compile(ds, owOpts)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(closed.w))
	w[0], w[1], w[2] = 1.5, 0.5, 1.0
	setWeights(t, closed, w)
	setWeights(t, open, w)
	rc, ro := inferAll(t, closed), inferAll(t, open)
	for o := 0; o < ds.NumObjects(); o++ {
		pc := rc.Posterior(data.ObjectID(o))
		po := ro.Posterior(data.ObjectID(o))
		for v, p := range pc {
			if math.Abs(po[v]-p) > 1e-9 {
				t.Errorf("object %d value %d: open %v vs closed %v", o, v, po[v], p)
			}
		}
		if po[data.None] > 1e-9 {
			t.Errorf("wildcard mass should vanish at bias -50, got %v", po[data.None])
		}
	}
}

func TestOpenWorldHighBiasAbstains(t *testing.T) {
	opts := DefaultOptions()
	opts.OpenWorld = true
	opts.OpenWorldBias = 30
	m, err := Compile(openWorldDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	// With an overwhelming bias, every object resolves to the wildcard.
	for o, v := range res.Values {
		if v != data.None {
			t.Errorf("object %d = %d, want wildcard under bias 30", o, v)
		}
	}
}

func TestOpenWorldMAPPrefersUnanimousOverWildcard(t *testing.T) {
	opts := DefaultOptions()
	opts.OpenWorld = true
	opts.OpenWorldBias = 2.0 // above one source's σ, below three
	m, err := Compile(openWorldDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Give the sources solid reliabilities.
	w := make([]float64, len(m.w))
	for s := 0; s < 3; s++ {
		w[s] = mathx.Logit(0.85)
	}
	setWeights(t, m, w)
	res, err := m.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Three agreeing reliable sources beat the wildcard on "clear"...
	if res.Values[1] == data.None {
		t.Error("unanimous reliable object should not abstain")
	}
	// ...but the 1-vs-1 contested object abstains: each side carries
	// only logit(0.85) ≈ 1.73 < bias 2.0.
	if res.Values[0] != data.None {
		t.Errorf("contested object = %d, want wildcard", res.Values[0])
	}
}

func TestOpenWorldERMWithNoneLabels(t *testing.T) {
	// Label the contested object as "truth unreported"; ERM should
	// learn to distrust both claimants relative to the clear object's
	// sources... and at minimum must accept the example and converge.
	opts := DefaultOptions()
	opts.OpenWorld = true
	opts.OpenWorldBias = 0
	// Test the raw ERM learning path: with only two observations per
	// source, calibration's empirical-Bayes prior would dominate the
	// counts and wash out the deliberately distrusting solution.
	opts.ERMCalibrate = false
	m, err := Compile(openWorldDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Value ids follow interning order: a=0, b=1, x=2.
	train := data.TruthMap{0: data.None, 1: 2} // contested=unreported, clear=x
	if _, err := m.FitERM(train); err != nil {
		t.Fatal(err)
	}
	res, err := m.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != data.None {
		t.Errorf("trained model should abstain on the contested object, got %d", res.Values[0])
	}
	if res.Values[1] == data.None {
		t.Error("trained model should commit on the clear object")
	}
}
