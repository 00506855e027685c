package core

import (
	"math"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/synth"
)

// tinyDataset builds a 3-source, 2-object instance with features.
// inferAll runs exact inference with no clamped labels.
func inferAll(t testing.TB, m *Model) *Result {
	t.Helper()
	res, err := m.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// setWeights installs w as the model's weights and drops the σ-table,
// as every weight mutation inside the package does.
func setWeights(t testing.TB, m *Model, w []float64) {
	t.Helper()
	if len(w) != len(m.w) {
		t.Fatalf("got %d weights, the model has %d", len(w), len(m.w))
	}
	copy(m.w, w)
	m.invalidateSigma()
}

func tinyDataset() *data.Dataset {
	b := data.NewBuilder("tiny")
	b.ObserveNames("s0", "o0", "a")
	b.ObserveNames("s1", "o0", "a")
	b.ObserveNames("s2", "o0", "b")
	b.ObserveNames("s0", "o1", "b")
	b.ObserveNames("s2", "o1", "b")
	b.SetFeature(b.Source("s0"), "f0")
	b.SetFeature(b.Source("s1"), "f0")
	b.SetFeature(b.Source("s1"), "f1")
	return b.Freeze()
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(nil, DefaultOptions()); err == nil {
		t.Error("nil dataset should error")
	}
	opts := DefaultOptions()
	opts.Optim.Epochs = 0
	if _, err := Compile(tinyDataset(), opts); err == nil {
		t.Error("invalid optim config should error")
	}
}

func TestSigmaAndAccuracies(t *testing.T) {
	m, err := Compile(tinyDataset(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Weights: 3 sources + 2 features.
	if len(m.w) != 5 {
		t.Fatalf("len(w) = %d, want 5", len(m.w))
	}
	w := []float64{0.5, -0.2, 0.1, 1.0, 2.0} // ws0 ws1 ws2 wf0 wf1
	setWeights(t, m, w)
	// σ(s0) = 0.5 + f0 = 1.5; σ(s1) = -0.2 + 1 + 2 = 2.8; σ(s2) = 0.1.
	if got := m.Sigma(0); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Sigma(s0) = %v, want 1.5", got)
	}
	if got := m.Sigma(1); math.Abs(got-2.8) > 1e-12 {
		t.Errorf("Sigma(s1) = %v, want 2.8", got)
	}
	acc := m.SourceAccuracies()
	if math.Abs(acc[2]-mathx.Logistic(0.1)) > 1e-12 {
		t.Errorf("acc(s2) = %v", acc[2])
	}
}

func TestSigmaWithoutFeatures(t *testing.T) {
	opts := DefaultOptions()
	opts.UseFeatures = false
	m, err := Compile(tinyDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(m.w))
	w[0] = 0.5
	w[3] = 99 // feature weight must be ignored
	setWeights(t, m, w)
	if got := m.Sigma(0); got != 0.5 {
		t.Errorf("Sigma without features = %v, want 0.5", got)
	}
}

func TestPosteriorMatchesEquation4(t *testing.T) {
	// tinyDataset interns "a" as value 0 and "b" as value 1. Object 0:
	// s0, s1 say "a", s2 says "b"; object 1: s0 and s2 say "b".
	const a, b = data.ValueID(0), data.ValueID(1)
	e := math.Exp
	sources := func(m *Model) []float64 {
		w := make([]float64, len(m.w))
		w[0], w[1], w[2] = 2, 1, 0.5 // σ = w_s: no feature weights
		return w
	}
	// Appendix D: every pair co-observes at least one object, (s0, s1)
	// agree on "a" at object 0, (s0, s2) on "b" at object 1, and
	// (s1, s2) never agree.
	copyOpts := DefaultOptions()
	copyOpts.CopyFeatures = true
	copyOpts.MinCopyOverlap = 1
	pairW := map[[2]data.SourceID]float64{{0, 1}: 0.7, {0, 2}: 0.4, {1, 2}: 0.9}
	copyWeights := func(m *Model) []float64 {
		w := sources(m)
		if m.NumCopyPairs() != len(pairW) {
			t.Fatalf("NumCopyPairs = %d, want %d", m.NumCopyPairs(), len(pairW))
		}
		for p := 0; p < m.NumCopyPairs(); p++ {
			sa, sb, _ := m.CopyPair(p)
			w[m.featBase()+m.numFeatures+p] = pairW[[2]data.SourceID{sa, sb}]
		}
		return w
	}
	// Every value except the copiers' agreed one gets +w_pair; a pair
	// that agrees elsewhere, or never, adds nothing.
	z0 := e(3) + e(0.5+0.7)
	cases := []struct {
		name    string
		opts    Options
		weights func(*Model) []float64
		obj     data.ObjectID
		want    map[data.ValueID]float64
	}{
		{"closed-world", DefaultOptions(), sources, 0, map[data.ValueID]float64{
			a: e(3) / (e(3) + e(0.5)),
			b: e(0.5) / (e(3) + e(0.5)),
		}},
		{"copy", copyOpts, copyWeights, 0, map[data.ValueID]float64{
			a: e(3) / z0,
			b: e(0.5+0.7) / z0,
		}},
	}
	for _, c := range cases {
		m, err := Compile(tinyDataset(), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		setWeights(t, m, c.weights(m))
		res, err := m.Infer(nil)
		if err != nil {
			t.Fatal(err)
		}
		post := res.Posterior(c.obj)
		if len(post) != len(c.want) {
			t.Fatalf("%s: posterior %v, want domain of %v", c.name, post, c.want)
		}
		var sum float64
		for v, want := range c.want {
			if math.Abs(post[v]-want) > 1e-12 {
				t.Errorf("%s: P(%d) = %v, want %v", c.name, v, post[v], want)
			}
			sum += post[v]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: posterior sums to %v", c.name, sum)
		}
	}
}

func TestInferExactRespectsKnownLabels(t *testing.T) {
	m, _ := Compile(tinyDataset(), DefaultOptions())
	known := data.TruthMap{0: 1} // pin object 0 to "b"
	res, err := m.Infer(known)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 1 {
		t.Errorf("known label overridden: %v", res.Values[0])
	}
	if res.Posterior(0)[1] != 1 {
		t.Error("known label should have point-mass posterior")
	}
}

func TestCopyPairsCompiled(t *testing.T) {
	inst, err := synth.Generate(synth.Config{
		Name: "c", Sources: 12, Objects: 200, DomainSize: 2,
		Assignment: synth.IIDDensity, Density: 0.5,
		MeanAccuracy: 0.65, AccuracySD: 0.08, MinAccuracy: 0.4, MaxAccuracy: 0.9,
		Copying: synth.CopyConfig{Cliques: 1, Size: 3, CopyProb: 0.9},
		Seed:    31,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.CopyFeatures = true
	opts.MinCopyOverlap = 5
	m, err := Compile(inst.Dataset, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCopyPairs() == 0 {
		t.Fatal("dense instance should compile copy pairs")
	}
	if len(m.w) != inst.Dataset.NumSources()+inst.Dataset.NumFeatures()+m.NumCopyPairs() {
		t.Error("NumParams should include copy pairs")
	}
	a, b, w := m.CopyPair(0)
	if a == b {
		t.Error("copy pair with identical sources")
	}
	if w != 0 {
		t.Error("initial copy weight should be 0")
	}
}

func TestPredictAccuracyUsesFeatures(t *testing.T) {
	m, _ := Compile(tinyDataset(), DefaultOptions())
	w := make([]float64, len(m.w))
	w[3] = 2  // f0
	w[4] = -1 // f1
	setWeights(t, m, w)
	// Source weights are all zero, so intercept = 0.
	pf0 := m.PredictAccuracy([]string{"f0"})
	if math.Abs(pf0-mathx.Logistic(2)) > 1e-12 {
		t.Errorf("PredictAccuracy(f0) = %v, want logistic(2)", pf0)
	}
	both := m.PredictAccuracy([]string{"f0", "f1"})
	if math.Abs(both-mathx.Logistic(1)) > 1e-12 {
		t.Errorf("PredictAccuracy(f0,f1) = %v, want logistic(1)", both)
	}
	// Unknown labels ignored.
	if got := m.PredictAccuracy([]string{"zzz"}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("unknown feature should give logistic(0) = 0.5, got %v", got)
	}
}

func TestPredictAccuracyIntercept(t *testing.T) {
	m, _ := Compile(tinyDataset(), DefaultOptions())
	w := make([]float64, len(m.w))
	w[0], w[1], w[2] = 3, 3, 3 // mean source weight 3
	setWeights(t, m, w)
	if got := m.PredictAccuracy(nil); math.Abs(got-mathx.Logistic(3)) > 1e-12 {
		t.Errorf("intercept prediction = %v, want logistic(3)", got)
	}
}

func TestInferSkipsUnobservedObjects(t *testing.T) {
	b := data.NewBuilder("sparse")
	b.Object("lonely") // no observations
	b.ObserveNames("s", "seen", "x")
	d := b.Freeze()
	m, _ := Compile(d, DefaultOptions())
	res, err := m.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Values[0]; ok {
		t.Error("unobserved object should have no estimate")
	}
	if _, ok := res.Values[1]; !ok {
		t.Error("observed object should have an estimate")
	}
}
