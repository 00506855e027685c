package core

import (
	"math/rand"
	"testing"

	"slimfast/internal/data"
)

// TestSigmaCacheInvalidation exercises the invalidate-on-weight-change
// contract: changing the weights behind a populated σ-cache must leave
// the model scoring exactly as a freshly compiled model with the same
// weights.
func TestSigmaCacheInvalidation(t *testing.T) {
	inst := goldenInstance(t)
	m, err := Compile(inst.Dataset, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitEM(nil); err != nil {
		t.Fatal(err)
	}
	// Populate the cache, then change the weights behind it.
	inferAll(t, m)
	w := append([]float64{}, m.w...)
	for i := range w {
		w[i] += 0.25 * float64(i%3)
	}
	setWeights(t, m, w)
	fresh, err := Compile(inst.Dataset, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	setWeights(t, fresh, w)
	rm, rf := inferAll(t, m), inferAll(t, fresh)
	for o := 0; o < inst.Dataset.NumObjects(); o++ {
		got := rm.Posterior(data.ObjectID(o))
		want := rf.Posterior(data.ObjectID(o))
		if len(got) != len(want) {
			t.Fatalf("object %d: posterior sizes differ: %d vs %d", o, len(got), len(want))
		}
		for v, p := range want {
			if got[v] != p {
				t.Fatalf("object %d value %d: stale σ-cache posterior %v, want %v", o, v, got[v], p)
			}
		}
	}
	if got, want := meanLogPosterior(m, inst.Gold), meanLogPosterior(fresh, inst.Gold); got != want {
		t.Fatalf("stale σ-cache log-likelihood %v, want %v", got, want)
	}
}

// TestCopyPairsOrderIndependent is the regression test for the
// canonicalized copy-pair keys: feeding the builder the same
// observations in shuffled orders must compile the same pairs and learn
// the same weights.
func TestCopyPairsOrderIndependent(t *testing.T) {
	rows := [][3]string{
		{"s0", "o0", "x"}, {"s1", "o0", "x"}, {"s2", "o0", "y"},
		{"s0", "o1", "y"}, {"s1", "o1", "y"}, {"s2", "o1", "x"},
		{"s0", "o2", "x"}, {"s1", "o2", "x"}, {"s2", "o2", "x"},
		{"s0", "o3", "z"}, {"s1", "o3", "z"}, {"s2", "o3", "z"},
	}
	build := func(order []int) *Model {
		b := data.NewBuilder("shuffled")
		// Pre-intern names in canonical order so shuffling the
		// observation stream cannot change the id assignment — the
		// point is to vary the order sources co-observe objects.
		for _, r := range rows {
			b.Source(r[0])
			b.Object(r[1])
			b.Value(r[2])
		}
		for _, i := range order {
			b.ObserveNames(rows[i][0], rows[i][1], rows[i][2])
		}
		opts := DefaultOptions()
		opts.CopyFeatures = true
		opts.MinCopyOverlap = 3
		m, err := Compile(b.Freeze(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := build([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	if ref.NumCopyPairs() == 0 {
		t.Fatal("expected copy pairs on the reference build")
	}
	for p := 0; p < ref.NumCopyPairs(); p++ {
		a, b, _ := ref.CopyPair(p)
		if a >= b {
			t.Fatalf("pair %d not canonicalized: (%d, %d)", p, a, b)
		}
	}
	train := data.TruthMap{0: ref.ds.Domain(0)[0], 1: ref.ds.Domain(1)[0], 2: ref.ds.Domain(2)[0]}
	if _, err := ref.FitERM(train); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		order := rng.Perm(len(rows))
		m := build(order)
		if m.NumCopyPairs() != ref.NumCopyPairs() {
			t.Fatalf("trial %d: %d copy pairs, want %d", trial, m.NumCopyPairs(), ref.NumCopyPairs())
		}
		for p := 0; p < ref.NumCopyPairs(); p++ {
			ra, rb, _ := ref.CopyPair(p)
			ma, mb, _ := m.CopyPair(p)
			if ra != ma || rb != mb {
				t.Fatalf("trial %d pair %d: (%d,%d), want (%d,%d)", trial, p, ma, mb, ra, rb)
			}
		}
		if _, err := m.FitERM(train); err != nil {
			t.Fatal(err)
		}
		wr, wm := ref.w, m.w
		for j := range wr {
			if wr[j] != wm[j] {
				t.Fatalf("trial %d: weight %d differs under shuffled input: %v vs %v", trial, j, wm[j], wr[j])
			}
		}
	}
}

// TestCalibrateWorkerDeterminism targets the parallel agreement
// counting directly: calibrating the same weights with 1 and 8 workers
// must produce bit-identical weight vectors (the per-source count slots
// accumulate in global observation order regardless of chunking).
func TestCalibrateWorkerDeterminism(t *testing.T) {
	inst := goldenInstance(t)
	opts := DefaultOptions()
	opts.EMCalibrate = false
	seed, err := Compile(inst.Dataset, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.FitEM(nil); err != nil {
		t.Fatal(err)
	}
	calibrated := func(workers int) []float64 {
		o := opts
		o.Workers = workers
		m, err := Compile(inst.Dataset, o)
		if err != nil {
			t.Fatal(err)
		}
		setWeights(t, m, seed.w)
		if err := m.Calibrate(nil); err != nil {
			t.Fatal(err)
		}
		return m.w
	}
	w1, w8 := calibrated(1), calibrated(8)
	for j := range w1 {
		if w1[j] != w8[j] {
			t.Fatalf("weight %d differs across calibrate worker counts: %v vs %v", j, w1[j], w8[j])
		}
	}
}
