package core

import (
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/metrics"
	"slimfast/internal/randx"
)

// classedInstance builds an instance where every source is accurate on
// class-0 objects and inaccurate on class-1 objects (or vice versa), by
// merging two synthetic instances over the same sources.
func classedInstance(t *testing.T) (*data.Dataset, data.TruthMap, []int) {
	t.Helper()
	// Class 0: sources 0-9 accurate (0.9), sources 10-19 poor (0.3).
	// Class 1: flipped.
	b := data.NewBuilder("classed")
	rng := randx.New(33)
	const perClass = 250
	classes := make([]int, 0, 2*perClass)
	truth := data.TruthMap{}
	for class := 0; class < 2; class++ {
		for i := 0; i < perClass; i++ {
			oname := "c" + string(rune('0'+class)) + "-" + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + string(rune('0'+i/676))
			o := b.Object(oname)
			classes = append(classes, class)
			tv := b.Value("v" + string(rune('0'+rng.Intn(2))))
			truth[o] = tv
			for s := 0; s < 20; s++ {
				if !rng.Bernoulli(0.4) {
					continue
				}
				acc := 0.9
				if (s >= 10) == (class == 0) {
					acc = 0.3
				}
				v := tv
				if !rng.Bernoulli(acc) {
					// binary domain: the other value
					other := "v0"
					if b.Value("v0") == tv {
						other = "v1"
					}
					v = b.Value(other)
				}
				b.Observe(data.SourceID(s), o, v)
			}
		}
	}
	// Intern all 20 sources even if unused.
	for s := 0; s < 20; s++ {
		b.Source("s" + string(rune('a'+s)))
	}
	return b.Freeze(), truth, classes
}

func TestPerClassAccuraciesImproveFusion(t *testing.T) {
	ds, gold, classes := classedInstance(t)
	train, test := data.Split(gold, 0.3, randx.New(1))

	// Single-class model: each source's two behaviours average out to
	// ~0.6, washing out the signal.
	single, err := Compile(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.FitERM(train); err != nil {
		t.Fatal(err)
	}
	resSingle, err := single.Infer(train)
	if err != nil {
		t.Fatal(err)
	}
	accSingle := metrics.ObjectAccuracy(resSingle.Values, test)

	// Per-class model learns both regimes.
	opts := DefaultOptions()
	opts.ObjectClasses = classes
	opts.NumClasses = 2
	classed, err := Compile(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if classed.numClasses != 2 {
		t.Fatal("numClasses wrong")
	}
	if _, err := classed.FitERM(train); err != nil {
		t.Fatal(err)
	}
	resClassed, err := classed.Infer(train)
	if err != nil {
		t.Fatal(err)
	}
	accClassed := metrics.ObjectAccuracy(resClassed.Values, test)

	if accClassed <= accSingle+0.05 {
		t.Errorf("per-class model should clearly win: single %.3f vs classed %.3f", accSingle, accClassed)
	}
	// The learned per-class accuracies should show the flip for a
	// class-0-accurate source.
	acc := func(s data.SourceID, class int) float64 {
		return mathx.Logistic(classed.SigmaClass(s, class))
	}
	if acc(0, 0) <= acc(0, 1) {
		t.Errorf("source 0 should be better on class 0: %.2f vs %.2f", acc(0, 0), acc(0, 1))
	}
	if acc(15, 1) <= acc(15, 0) {
		t.Errorf("source 15 should be better on class 1: %.2f vs %.2f", acc(15, 1), acc(15, 0))
	}
}

func TestPerClassEMWithCalibration(t *testing.T) {
	ds, gold, classes := classedInstance(t)
	opts := DefaultOptions()
	opts.ObjectClasses = classes
	opts.NumClasses = 2
	m, err := Compile(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitEM(nil); err != nil {
		t.Fatal(err)
	}
	res, err := m.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc := metrics.ObjectAccuracy(res.Values, gold); acc < 0.75 {
		t.Errorf("unsupervised per-class EM accuracy = %v, want >= 0.75", acc)
	}
}

func TestPerClassValidation(t *testing.T) {
	ds, _, classes := classedInstance(t)
	opts := DefaultOptions()
	opts.ObjectClasses = classes[:3] // wrong length
	opts.NumClasses = 2
	if _, err := Compile(ds, opts); err == nil {
		t.Error("wrong-length ObjectClasses should error")
	}
	opts.ObjectClasses = classes
	opts.NumClasses = 0
	if _, err := Compile(ds, opts); err == nil {
		t.Error("NumClasses=0 should error")
	}
	bad := append([]int{}, classes...)
	bad[0] = 7
	opts.ObjectClasses = bad
	opts.NumClasses = 2
	if _, err := Compile(ds, opts); err == nil {
		t.Error("out-of-range class should error")
	}
}

func TestPerClassParamCount(t *testing.T) {
	ds, _, classes := classedInstance(t)
	opts := DefaultOptions()
	opts.ObjectClasses = classes
	opts.NumClasses = 2
	m, err := Compile(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := ds.NumSources()*2 + ds.NumFeatures()
	if len(m.w) != want {
		t.Errorf("len(w) = %d, want %d", len(m.w), want)
	}
	single, _ := Compile(ds, DefaultOptions())
	if single.numClasses != 1 {
		t.Error("default model should have 1 class")
	}
}
