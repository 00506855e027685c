package core

import (
	"math"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/metrics"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// denseInstance reproduces the regime where raw EM/ERM leaves σ weakly
// identified: many observations per object saturate the posteriors.
func denseInstance(t *testing.T, seed int64) *synth.Instance {
	t.Helper()
	inst, err := synth.Generate(synth.Config{
		Name: "dense", Sources: 30, Objects: 500, DomainSize: 6,
		Assignment: synth.IIDDensity, Density: 0.9,
		MeanAccuracy: 0.55, AccuracySD: 0.22, MinAccuracy: 0.1, MaxAccuracy: 0.97,
		EnsureTruthObserved: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestCalibrationFixesEMSourceError(t *testing.T) {
	inst := denseInstance(t, 201)
	trueAcc := inst.Dataset.TrueSourceAccuracies(inst.Gold)
	run := func(calibrate bool) float64 {
		opts := DefaultOptions()
		opts.EMCalibrate = calibrate
		m, err := Compile(inst.Dataset, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.FitEM(nil); err != nil {
			t.Fatal(err)
		}
		return metrics.SourceAccuracyError(inst.Dataset, m.SourceAccuracies(), trueAcc)
	}
	raw := run(false)
	calibrated := run(true)
	if calibrated >= raw {
		t.Errorf("calibration should reduce source error: %.4f -> %.4f", raw, calibrated)
	}
	if calibrated > 0.03 {
		t.Errorf("calibrated EM source error = %.4f, want <= 0.03 on a dense instance", calibrated)
	}
}

func TestCalibrationFixesERMSourceError(t *testing.T) {
	inst := denseInstance(t, 202)
	trueAcc := inst.Dataset.TrueSourceAccuracies(inst.Gold)
	train, _ := data.Split(inst.Gold, 0.2, randx.New(1))
	run := func(calibrate bool) float64 {
		opts := DefaultOptions()
		opts.ERMCalibrate = calibrate
		m, err := Compile(inst.Dataset, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.FitERM(train); err != nil {
			t.Fatal(err)
		}
		return metrics.SourceAccuracyError(inst.Dataset, m.SourceAccuracies(), trueAcc)
	}
	raw := run(false)
	calibrated := run(true)
	if calibrated >= raw {
		t.Errorf("ERM calibration should reduce source error: %.4f -> %.4f", raw, calibrated)
	}
	// Supervised calibration only sees the 20% labeled observations,
	// so its error floor is higher than EM's full-data calibration.
	if calibrated > 0.06 {
		t.Errorf("calibrated ERM source error = %.4f, want <= 0.06", calibrated)
	}
}

func TestCalibrationPreservesObjectAccuracy(t *testing.T) {
	inst := denseInstance(t, 203)
	train, test := data.Split(inst.Gold, 0.1, randx.New(2))
	run := func(calibrate bool) float64 {
		opts := DefaultOptions()
		opts.EMCalibrate = calibrate
		m, err := Compile(inst.Dataset, opts)
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
		return metrics.ObjectAccuracy(res.Values, test)
	}
	raw := run(false)
	calibrated := run(true)
	// Calibrated (honest) weights can cost a little MAP accuracy versus
	// EM's self-sharpened weights on dense many-valued instances; the
	// trade buys order-of-magnitude better accuracy estimates. Bound
	// the cost.
	if calibrated+0.05 < raw {
		t.Errorf("calibration cost too much object accuracy: %.3f -> %.3f", raw, calibrated)
	}
}

func TestCalibrateOnEmptyModelIsNoOp(t *testing.T) {
	b := data.NewBuilder("empty")
	b.Source("s")
	b.Object("o")
	ds := b.Freeze()
	m, err := Compile(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate(nil); err != nil {
		t.Fatalf("calibrate with no observations should be a no-op: %v", err)
	}
	for _, w := range m.w {
		if w != 0 {
			t.Fatal("weights moved without observations")
		}
	}
}

func TestCalibrationSigmaEqualsLogitAccuracy(t *testing.T) {
	// Equation 2 consistency after calibration: A_s = logistic(σ_s) by
	// construction, and both match the posterior agreement rate.
	inst := denseInstance(t, 204)
	m, err := Compile(inst.Dataset, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitEM(nil); err != nil {
		t.Fatal(err)
	}
	acc := m.SourceAccuracies()
	for s := 0; s < inst.Dataset.NumSources(); s++ {
		sigma := m.Sigma(data.SourceID(s))
		if math.Abs(acc[s]-1/(1+math.Exp(-sigma))) > 1e-12 {
			t.Fatal("Equation 2/3 inconsistency")
		}
	}
}
