package core

import (
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// The race/determinism tier: fitting and inference with Workers=N must
// produce results identical to Workers=1, across ERM, EM,
// copy-detection and multi-class configurations. Run under -race this
// also proves the parallel paths share no mutable state.

// fitBoth compiles the instance twice with the given options at two
// worker counts, runs fit, and returns both models and results.
func fitBoth(t *testing.T, inst *synth.Instance, opts Options, alg Algorithm, train data.TruthMap, w1, wN int) (a, b *Model, ra, rb *Result) {
	t.Helper()
	run := func(workers int) (*Model, *Result) {
		o := opts
		o.Workers = workers
		m, err := Compile(inst.Dataset, o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Fuse(alg, train)
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}
	a, ra = run(w1)
	b, rb = run(wN)
	return a, b, ra, rb
}

// assertSameFit fails unless weights, fused values and posteriors are
// bit-identical between the two runs.
func assertSameFit(t *testing.T, label string, a, b *Model, ra, rb *Result) {
	t.Helper()
	wa, wb := a.w, b.w
	if len(wa) != len(wb) {
		t.Fatalf("%s: param counts differ: %d vs %d", label, len(wa), len(wb))
	}
	for j := range wa {
		if wa[j] != wb[j] {
			t.Fatalf("%s: weight %d differs: %v vs %v (Δ=%g)", label, j, wa[j], wb[j], wa[j]-wb[j])
		}
	}
	if len(ra.Values) != len(rb.Values) {
		t.Fatalf("%s: fused %d vs %d objects", label, len(ra.Values), len(rb.Values))
	}
	for o, v := range ra.Values {
		if rb.Values[o] != v {
			t.Fatalf("%s: object %d fused to %d vs %d", label, o, v, rb.Values[o])
		}
	}
	for o, post := range ra.Posteriors() {
		for v, p := range post {
			if q := rb.Posterior(o)[v]; q != p {
				t.Fatalf("%s: posterior[%d][%d] = %v vs %v", label, o, v, p, q)
			}
		}
	}
	for s := range ra.SourceAccuracies {
		if ra.SourceAccuracies[s] != rb.SourceAccuracies[s] {
			t.Fatalf("%s: source %d accuracy differs", label, s)
		}
	}
}

func TestParallelERMEquivalentToSerial(t *testing.T) {
	inst := mediumInstance(t, 51)
	train, _ := data.Split(inst.Gold, 0.2, randx.New(1))
	for _, workers := range []int{2, 4} {
		a, b, ra, rb := fitBoth(t, inst, DefaultOptions(), AlgorithmERM, train, 1, workers)
		assertSameFit(t, "erm", a, b, ra, rb)
	}
}

func TestParallelEMEquivalentToSerial(t *testing.T) {
	inst := mediumInstance(t, 52)
	train, _ := data.Split(inst.Gold, 0.05, randx.New(2))
	a, b, ra, rb := fitBoth(t, inst, DefaultOptions(), AlgorithmEM, train, 1, 4)
	assertSameFit(t, "em", a, b, ra, rb)
	// Fully unsupervised EM too.
	a, b, ra, rb = fitBoth(t, inst, DefaultOptions(), AlgorithmEM, nil, 1, 3)
	assertSameFit(t, "em-unsupervised", a, b, ra, rb)
}

func TestParallelCopyDetectionEquivalentToSerial(t *testing.T) {
	inst, err := synth.Demos(7)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.UseFeatures = false
	opts.CopyFeatures = true
	opts.MinCopyOverlap = 12
	train, _ := data.Split(inst.Gold, 0.2, randx.New(3))
	a, b, ra, rb := fitBoth(t, inst, opts, AlgorithmEM, train, 1, 4)
	assertSameFit(t, "copy-em", a, b, ra, rb)
}

func TestParallelInferEquivalentToSerial(t *testing.T) {
	inst := mediumInstance(t, 54)
	train, _ := data.Split(inst.Gold, 0.1, randx.New(5))
	opts := DefaultOptions()
	opts.Workers = 1
	m, err := Compile(inst.Dataset, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitERM(train); err != nil {
		t.Fatal(err)
	}
	serial, err := m.Infer(train)
	if err != nil {
		t.Fatal(err)
	}
	w := append([]float64{}, m.w...)
	for _, workers := range []int{2, 4, 8} {
		o := DefaultOptions()
		o.Workers = workers
		mp, err := Compile(inst.Dataset, o)
		if err != nil {
			t.Fatal(err)
		}
		setWeights(t, mp, w)
		par, err := mp.Infer(train)
		if err != nil {
			t.Fatal(err)
		}
		assertSameFit(t, "infer", m, mp, serial, par)
	}
}

func TestDefaultWorkersEquivalentToSerial(t *testing.T) {
	// Workers=0 (the GOMAXPROCS default every caller gets) must match
	// the explicit serial path too.
	inst := mediumInstance(t, 56)
	train, _ := data.Split(inst.Gold, 0.1, randx.New(7))
	a, b, ra, rb := fitBoth(t, inst, DefaultOptions(), AlgorithmEM, train, 1, 0)
	assertSameFit(t, "em-default-workers", a, b, ra, rb)
}
