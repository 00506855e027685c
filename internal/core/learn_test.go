package core

import (
	"fmt"
	"math"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/metrics"
	"slimfast/internal/optim"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// mediumInstance generates a fusion problem that is easy enough to
// learn in test time yet non-trivial.
func mediumInstance(t *testing.T, seed int64) *synth.Instance {
	t.Helper()
	inst, err := synth.Generate(synth.Config{
		Name: "medium", Sources: 40, Objects: 600, DomainSize: 2,
		Assignment: synth.IIDDensity, Density: 0.25,
		MeanAccuracy: 0.72, AccuracySD: 0.12, MinAccuracy: 0.5, MaxAccuracy: 0.95,
		Features: []synth.FeatureGroup{
			{Name: "q", Cardinality: 8, Informative: true, WeightScale: 2.0},
			{Name: "noise", Cardinality: 8, Informative: false},
		},
		EnsureTruthObserved: true,
		Seed:                seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// meanLogPosterior is the mean log posterior the current weights assign
// to the labels in truth, over labeled observed objects: the training
// objective's negation, summed serially in example order.
func meanLogPosterior(m *Model, truth data.TruthMap) float64 {
	examples := m.labeledExamples(truth)
	if len(examples) == 0 {
		return 0
	}
	sg := m.sigmaTable()
	var sum float64
	for _, ex := range examples {
		scores, dom := m.objectScores(ex.object, sg, nil)
		lse := mathx.LogSumExp(scores)
		for j, v := range dom {
			if v == ex.truth {
				sum += scores[j] - lse
				break
			}
		}
	}
	return sum / float64(len(examples))
}

// addSparse adds the accumulator's touched coordinates into dst.
func addSparse(dst []float64, g *optim.Sparse) {
	for i := 0; i < g.Len(); i++ {
		j, v := g.At(i)
		dst[j] += v
	}
}

func TestFitERMGradientFiniteDifference(t *testing.T) {
	// The analytic gradient must match a numerical one on a small
	// instance — the load-bearing correctness check for both learners.
	d := tinyDataset()
	m, err := Compile(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	train := data.TruthMap{0: 0, 1: 1}
	base := []float64{0.3, -0.5, 0.2, 0.7, -0.1}
	setWeights(t, m, base)

	// Analytic: sum of per-example gradients of -log P(truth).
	examples := m.labeledExamples(train)
	analytic := make([]float64, len(m.w))
	for _, ex := range examples {
		g := optim.NewSparse()
		m.accumGradient(m.w, g, ex.object, ex.truth, nil, &scratch{})
		addSparse(analytic, g)
	}

	// Numerical: central differences on the summed negative log-lik.
	loss := func(w []float64) float64 {
		setWeights(t, m, w)
		return -meanLogPosterior(m, train) * float64(len(examples))
	}
	const h = 1e-6
	for j := 0; j < len(m.w); j++ {
		wp := append([]float64{}, base...)
		wm := append([]float64{}, base...)
		wp[j] += h
		wm[j] -= h
		num := (loss(wp) - loss(wm)) / (2 * h)
		if math.Abs(num-analytic[j]) > 1e-4 {
			t.Errorf("grad[%d]: numeric %v vs analytic %v", j, num, analytic[j])
		}
	}
}

func TestFitERMGradientWithCopyFeaturesFiniteDifference(t *testing.T) {
	b := data.NewBuilder("copygrad")
	// Two sources co-observing 3 objects (enough for MinCopyOverlap=3),
	// plus a third source to create conflicts.
	for _, row := range [][3]string{
		{"s0", "o0", "x"}, {"s1", "o0", "x"}, {"s2", "o0", "y"},
		{"s0", "o1", "y"}, {"s1", "o1", "y"}, {"s2", "o1", "x"},
		{"s0", "o2", "x"}, {"s1", "o2", "x"}, {"s2", "o2", "x"},
	} {
		b.ObserveNames(row[0], row[1], row[2])
	}
	d := b.Freeze()
	opts := DefaultOptions()
	opts.CopyFeatures = true
	opts.MinCopyOverlap = 3
	m, err := Compile(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCopyPairs() == 0 {
		t.Fatal("expected copy pairs")
	}
	train := data.TruthMap{0: 0, 1: 0, 2: 1}
	base := make([]float64, len(m.w))
	for i := range base {
		base[i] = 0.1 * float64(i%5-2)
	}
	setWeights(t, m, base)
	examples := m.labeledExamples(train)
	analytic := make([]float64, len(m.w))
	for _, ex := range examples {
		g := optim.NewSparse()
		m.accumGradient(m.w, g, ex.object, ex.truth, nil, &scratch{})
		addSparse(analytic, g)
	}
	loss := func(w []float64) float64 {
		setWeights(t, m, w)
		return -meanLogPosterior(m, train) * float64(len(examples))
	}
	const h = 1e-6
	for j := 0; j < len(m.w); j++ {
		wp := append([]float64{}, base...)
		wm := append([]float64{}, base...)
		wp[j] += h
		wm[j] -= h
		num := (loss(wp) - loss(wm)) / (2 * h)
		if math.Abs(num-analytic[j]) > 1e-4 {
			t.Errorf("grad[%d]: numeric %v vs analytic %v", j, num, analytic[j])
		}
	}
}

func TestFitERMLearnsAccurateFusion(t *testing.T) {
	inst := mediumInstance(t, 51)
	train, test := data.Split(inst.Gold, 0.3, randx.New(1))
	m, err := Compile(inst.Dataset, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitERM(train); err != nil {
		t.Fatal(err)
	}
	res, err := m.Infer(train)
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.ObjectAccuracy(res.Values, test)
	if acc < 0.85 {
		t.Errorf("ERM object accuracy = %v, want >= 0.85", acc)
	}
	trueAcc := inst.Dataset.TrueSourceAccuracies(inst.Gold)
	srcErr := metrics.SourceAccuracyError(inst.Dataset, res.SourceAccuracies, trueAcc)
	if srcErr > 0.1 {
		t.Errorf("ERM source accuracy error = %v, want <= 0.1", srcErr)
	}
}

func TestFitERMIncreasesLikelihood(t *testing.T) {
	inst := mediumInstance(t, 52)
	train, _ := data.Split(inst.Gold, 0.2, randx.New(2))
	m, err := Compile(inst.Dataset, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := meanLogPosterior(m, train)
	if _, err := m.FitERM(train); err != nil {
		t.Fatal(err)
	}
	after := meanLogPosterior(m, train)
	if after <= before {
		t.Errorf("ERM should increase training likelihood: %v -> %v", before, after)
	}
}

func TestFitERMRequiresTruth(t *testing.T) {
	m, _ := Compile(tinyDataset(), DefaultOptions())
	if _, err := m.FitERM(nil); err == nil {
		t.Error("FitERM without ground truth should error")
	}
	// Truth on an object with no observations is unusable.
	b := data.NewBuilder("x")
	b.Object("lonely")
	b.ObserveNames("s", "seen", "v")
	d := b.Freeze()
	m2, _ := Compile(d, DefaultOptions())
	if _, err := m2.FitERM(data.TruthMap{0: 0}); err == nil {
		t.Error("truth only on unobserved objects should error")
	}
}

func TestFitEMUnsupervisedBeatsChance(t *testing.T) {
	// EM with zero ground truth must still recover most object values
	// when sources are better than chance (Section 4.2.2 regime).
	inst, err := synth.Generate(synth.Config{
		Name: "em", Sources: 60, Objects: 400, DomainSize: 2,
		Assignment: synth.IIDDensity, Density: 0.3,
		MeanAccuracy: 0.75, AccuracySD: 0.08, MinAccuracy: 0.55, MaxAccuracy: 0.95,
		EnsureTruthObserved: true, Seed: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(inst.Dataset, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.FitEM(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations == 0 {
		t.Error("EM should run at least one iteration")
	}
	res, err := m.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.ObjectAccuracy(res.Values, inst.Gold)
	if acc < 0.9 {
		t.Errorf("unsupervised EM accuracy = %v, want >= 0.9", acc)
	}
	trueAcc := inst.Dataset.TrueSourceAccuracies(inst.Gold)
	srcErr := metrics.SourceAccuracyError(inst.Dataset, res.SourceAccuracies, trueAcc)
	if srcErr > 0.12 {
		t.Errorf("unsupervised EM source error = %v, want <= 0.12", srcErr)
	}
}

func TestFitEMSemiSupervisedUsesLabels(t *testing.T) {
	inst := mediumInstance(t, 54)
	train, test := data.Split(inst.Gold, 0.1, randx.New(3))
	m, err := Compile(inst.Dataset, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitEM(train); err != nil {
		t.Fatal(err)
	}
	res, err := m.Infer(train)
	if err != nil {
		t.Fatal(err)
	}
	// Labeled objects returned verbatim.
	for o, v := range train {
		if res.Values[o] != v {
			t.Fatalf("semi-supervised EM must clamp evidence (object %d)", o)
		}
	}
	if acc := metrics.ObjectAccuracy(res.Values, test); acc < 0.8 {
		t.Errorf("semi-supervised EM accuracy = %v, want >= 0.8", acc)
	}
}

// emToyDataset has two agreeing sources and a third that dissents on
// every other object, plus an interned value "elsewhere" that no
// source reports on o0.
func emToyDataset() (*data.Dataset, data.ValueID) {
	b := data.NewBuilder("em-toy")
	for o := 0; o < 12; o++ {
		obj := fmt.Sprintf("o%d", o)
		b.ObserveNames("s1", obj, "a")
		b.ObserveNames("s2", obj, "a")
		if o%2 == 0 {
			b.ObserveNames("s3", obj, "b")
		} else {
			b.ObserveNames("s3", obj, "a")
		}
	}
	elsewhere := b.Value("elsewhere")
	return b.Freeze(), elsewhere
}

// TestFitEMIgnoresOutOfDomainLabel: in a closed world, a label outside
// the object's domain used to give its E-step an all-zero q, whose
// residual pushed every weight on the object down. EM must treat the
// object as unlabeled, as ERM skips it, so the weights equal those of a
// run without the label, bit for bit. The default calibration pass runs
// too, and must read the label the same way.
func TestFitEMIgnoresOutOfDomainLabel(t *testing.T) {
	ds, elsewhere := emToyDataset()
	opts := DefaultOptions()
	fit := func(train data.TruthMap) []float64 {
		m, err := Compile(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.FitEM(train); err != nil {
			t.Fatal(err)
		}
		return m.w
	}
	o0 := data.ObjectID(0) // "o0" is interned first
	got := fit(data.TruthMap{o0: elsewhere})
	want := fit(nil)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("weights with an out-of-domain label = %v, without it %v", got, want)
		}
	}
	for s := 0; s < 3; s++ {
		if got[s] <= 0 {
			t.Errorf("source %d weight %v, want > 0: every source beats chance", s, got[s])
		}
	}
}

// TestFitEMOpenWorldNoneLabelIsEvidence: under open-world semantics a
// data.None label is trainable (it targets the wildcard), for EM as for
// ERM, so it makes the wildcard likelier on its object than a run
// without the label does.
func TestFitEMOpenWorldNoneLabelIsEvidence(t *testing.T) {
	ds, _ := emToyDataset()
	opts := DefaultOptions()
	opts.OpenWorld = true
	opts.OpenWorldBias = 0
	opts.EMCalibrate = false
	o0 := data.ObjectID(0)
	wildcard := func(train data.TruthMap) float64 {
		m, err := Compile(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.FitEM(train); err != nil {
			t.Fatal(err)
		}
		return inferAll(t, m).Posterior(o0)[data.None]
	}
	labeled, unlabeled := wildcard(data.TruthMap{o0: data.None}), wildcard(nil)
	if !(labeled > unlabeled) {
		t.Errorf("wildcard posterior with a None label %v, without %v: want higher", labeled, unlabeled)
	}
}

func TestFitEMRequiresObservations(t *testing.T) {
	b := data.NewBuilder("empty")
	b.Object("o") // object but no observations
	b.Source("s")
	d := b.Freeze()
	m, _ := Compile(d, DefaultOptions())
	if _, err := m.FitEM(nil); err == nil {
		t.Error("FitEM with no observed objects should error")
	}
}

func TestFuseDispatch(t *testing.T) {
	inst := mediumInstance(t, 55)
	train, _ := data.Split(inst.Gold, 0.2, randx.New(4))
	for _, alg := range []Algorithm{AlgorithmERM, AlgorithmEM} {
		m, err := Compile(inst.Dataset, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Fuse(alg, train)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Algorithm != alg.String() {
			t.Errorf("Algorithm tag = %q, want %q", res.Algorithm, alg.String())
		}
		if len(res.Values) == 0 {
			t.Error("no fused values")
		}
	}
	m, _ := Compile(inst.Dataset, DefaultOptions())
	if _, err := m.Fuse(Algorithm(99), train); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestCopyFeaturesDetectPlantedCopiers(t *testing.T) {
	inst, err := synth.Generate(synth.Config{
		Name: "copy", Sources: 16, Objects: 400, DomainSize: 2,
		Assignment: synth.IIDDensity, Density: 0.5,
		MeanAccuracy: 0.62, AccuracySD: 0.08, MinAccuracy: 0.45, MaxAccuracy: 0.9,
		Copying:             synth.CopyConfig{Cliques: 1, Size: 3, CopyProb: 0.95},
		EnsureTruthObserved: true,
		Seed:                56,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.CopyFeatures = true
	opts.MinCopyOverlap = 20
	m, err := Compile(inst.Dataset, opts)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := data.Split(inst.Gold, 0.4, randx.New(5))
	if _, err := m.FitERM(train); err != nil {
		t.Fatal(err)
	}
	// Planted copier pairs should carry higher copy weights than the
	// average independent pair.
	planted := map[[2]data.SourceID]bool{}
	for _, p := range inst.CopierPairs {
		planted[p] = true
		planted[[2]data.SourceID{p[1], p[0]}] = true
	}
	var plantedSum, otherSum float64
	var plantedN, otherN int
	for p := 0; p < m.NumCopyPairs(); p++ {
		a, b, w := m.CopyPair(p)
		if planted[[2]data.SourceID{a, b}] {
			plantedSum += w
			plantedN++
		} else {
			otherSum += w
			otherN++
		}
	}
	if plantedN == 0 || otherN == 0 {
		t.Fatalf("want both planted (%d) and independent (%d) pairs", plantedN, otherN)
	}
	if plantedSum/float64(plantedN) <= otherSum/float64(otherN) {
		t.Errorf("planted copier weight %.3f should exceed independent %.3f",
			plantedSum/float64(plantedN), otherSum/float64(otherN))
	}
}

func TestExpectedLogLossFiniteAndOrdered(t *testing.T) {
	inst := mediumInstance(t, 57)
	train, test := data.Split(inst.Gold, 0.3, randx.New(6))
	m, err := Compile(inst.Dataset, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The held-out loss L(w) of Theorem 1 is the mean negative log
	// posterior of the gold label: -meanLogPosterior.
	lossBefore := -meanLogPosterior(m, test)
	if _, err := m.FitERM(train); err != nil {
		t.Fatal(err)
	}
	lossAfter := -meanLogPosterior(m, test)
	if math.IsInf(lossAfter, 0) || math.IsNaN(lossAfter) {
		t.Fatalf("loss not finite: %v", lossAfter)
	}
	if lossAfter >= lossBefore {
		t.Errorf("test loss should drop after training: %v -> %v", lossBefore, lossAfter)
	}
}

func TestSourcesOnlyModelStillLearns(t *testing.T) {
	// Sources-ERM (no features) should still fuse well on a dataset
	// with enough training signal.
	inst := mediumInstance(t, 58)
	train, test := data.Split(inst.Gold, 0.3, randx.New(7))
	opts := DefaultOptions()
	opts.UseFeatures = false
	m, err := Compile(inst.Dataset, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitERM(train); err != nil {
		t.Fatal(err)
	}
	res, err := m.Infer(train)
	if err != nil {
		t.Fatal(err)
	}
	if acc := metrics.ObjectAccuracy(res.Values, test); acc < 0.8 {
		t.Errorf("Sources-ERM accuracy = %v, want >= 0.8", acc)
	}
	// Feature weights must remain untouched.
	for k := 0; k < inst.Dataset.NumFeatures(); k++ {
		if m.FeatureWeight(data.FeatureID(k)) != 0 {
			t.Fatal("feature weights moved in sources-only model")
		}
	}
}

func TestERMDeterministicAcrossRuns(t *testing.T) {
	inst := mediumInstance(t, 59)
	train, _ := data.Split(inst.Gold, 0.2, randx.New(8))
	run := func() []float64 {
		m, err := Compile(inst.Dataset, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.FitERM(train); err != nil {
			t.Fatal(err)
		}
		return append([]float64{}, m.w...)
	}
	w1, w2 := run(), run()
	if mathx.MaxAbsDiff(w1, w2) != 0 {
		t.Error("same seeds must reproduce identical weights")
	}
}
