package core

import (
	"math"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/synth"
)

// tinyDataset builds a 3-source, 2-object instance with features.
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
	opts = DefaultOptions()
	opts.EMMaxIters = 0
	if _, err := Compile(tinyDataset(), opts); err == nil {
		t.Error("EMMaxIters=0 should error")
	}
}

func TestSigmaAndAccuracies(t *testing.T) {
	m, err := Compile(tinyDataset(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Weights: 3 sources + 2 features.
	if m.NumParams() != 5 {
		t.Fatalf("NumParams = %d, want 5", m.NumParams())
	}
	w := []float64{0.5, -0.2, 0.1, 1.0, 2.0} // ws0 ws1 ws2 wf0 wf1
	if err := m.SetWeights(w); err != nil {
		t.Fatal(err)
	}
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
	w := make([]float64, m.NumParams())
	w[0] = 0.5
	w[3] = 99 // feature weight must be ignored
	if err := m.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if got := m.Sigma(0); got != 0.5 {
		t.Errorf("Sigma without features = %v, want 0.5", got)
	}
}

func TestSetWeightsLengthCheck(t *testing.T) {
	m, _ := Compile(tinyDataset(), DefaultOptions())
	if err := m.SetWeights([]float64{1}); err == nil {
		t.Error("wrong length should error")
	}
}

func TestPosteriorMatchesEquation4(t *testing.T) {
	m, _ := Compile(tinyDataset(), DefaultOptions())
	w := make([]float64, m.NumParams())
	w[0], w[1], w[2] = 2, 1, 0.5 // no feature weights
	if err := m.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	// Object 0: s0(σ=2), s1(σ=1) say "a"; s2(σ=0.5) says "b".
	// P(a) = e^3 / (e^3 + e^0.5).
	post := m.Posterior(0)
	want := math.Exp(3) / (math.Exp(3) + math.Exp(0.5))
	if math.Abs(post[0]-want) > 1e-12 {
		t.Errorf("P(a) = %v, want %v", post[0], want)
	}
	// Posterior sums to 1.
	var sum float64
	for _, p := range post {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("posterior sums to %v", sum)
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

func TestInferGibbsMatchesExact(t *testing.T) {
	inst, err := synth.Generate(synth.Config{
		Name: "g", Sources: 15, Objects: 60, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.4,
		MeanAccuracy: 0.7, AccuracySD: 0.1, MinAccuracy: 0.5, MaxAccuracy: 0.95,
		EnsureTruthObserved: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	optsExact := DefaultOptions()
	mExact, err := Compile(inst.Dataset, optsExact)
	if err != nil {
		t.Fatal(err)
	}
	// Moderate weights so posteriors aren't saturated.
	w := make([]float64, mExact.NumParams())
	for s := 0; s < inst.Dataset.NumSources(); s++ {
		w[s] = mathx.Logit(inst.TrueAccuracy[s]) / 2
	}
	if err := mExact.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	exact := mExact.inferExact(nil)

	optsGibbs := DefaultOptions()
	optsGibbs.Inference = Gibbs
	optsGibbs.Gibbs.Samples = 4000
	mGibbs, err := Compile(inst.Dataset, optsGibbs)
	if err != nil {
		t.Fatal(err)
	}
	if err := mGibbs.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	gibbs, err := mGibbs.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Posteriors should agree to sampling error; MAP values should
	// agree on confidently decided objects.
	var maxDiff float64
	for o, pe := range exact.Posteriors() {
		pg := gibbs.Posterior(o)
		for v, p := range pe {
			d := math.Abs(p - pg[v])
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 0.06 {
		t.Errorf("max posterior diff exact vs Gibbs = %v", maxDiff)
	}
	agree, decided := 0, 0
	for o, v := range exact.Values {
		if exact.Posterior(o)[v] < 0.7 {
			continue
		}
		decided++
		if gibbs.Values[o] == v {
			agree++
		}
	}
	if decided > 0 && float64(agree)/float64(decided) < 0.95 {
		t.Errorf("Gibbs MAP agrees on %d/%d confident objects", agree, decided)
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
	if m.NumParams() != inst.Dataset.NumSources()+inst.Dataset.NumFeatures()+m.NumCopyPairs() {
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
	w := make([]float64, m.NumParams())
	w[3] = 2  // f0
	w[4] = -1 // f1
	if err := m.SetWeights(w); err != nil {
		t.Fatal(err)
	}
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
	w := make([]float64, m.NumParams())
	w[0], w[1], w[2] = 3, 3, 3 // mean source weight 3
	if err := m.SetWeights(w); err != nil {
		t.Fatal(err)
	}
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
