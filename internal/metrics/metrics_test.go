package metrics

import (
	"math"
	"testing"

	"slimfast/internal/data"
)

func smallDataset() *data.Dataset {
	b := data.NewBuilder("m")
	b.ObserveNames("s0", "o0", "a")
	b.ObserveNames("s0", "o1", "a")
	b.ObserveNames("s0", "o2", "a")
	b.ObserveNames("s1", "o0", "b")
	d := b.Freeze()
	return d
}

func TestObjectAccuracy(t *testing.T) {
	est := map[data.ObjectID]data.ValueID{0: 1, 1: 0, 2: 1}
	test := data.TruthMap{0: 1, 1: 1, 2: 1}
	if got := ObjectAccuracy(est, test); got != 2.0/3.0 {
		t.Errorf("ObjectAccuracy = %v, want 2/3", got)
	}
}

func TestObjectAccuracyMissingEstimateCountsWrong(t *testing.T) {
	est := map[data.ObjectID]data.ValueID{0: 1}
	test := data.TruthMap{0: 1, 1: 1}
	if got := ObjectAccuracy(est, test); got != 0.5 {
		t.Errorf("missing estimate should count wrong: %v", got)
	}
	if ObjectAccuracy(est, data.TruthMap{}) != 0 {
		t.Error("empty test should give 0")
	}
}

func TestSourceAccuracyErrorWeighting(t *testing.T) {
	d := smallDataset() // s0 has 3 observations, s1 has 1
	est := []float64{0.9, 0.5}
	trueAcc := []float64{1.0, 0.5}
	// weighted: (3*0.1 + 1*0) / 4 = 0.075
	if got := SourceAccuracyError(d, est, trueAcc); math.Abs(got-0.075) > 1e-12 {
		t.Errorf("SourceAccuracyError = %v, want 0.075", got)
	}
}

func TestSourceAccuracyErrorPerfect(t *testing.T) {
	d := smallDataset()
	acc := []float64{0.8, 0.6}
	if got := SourceAccuracyError(d, acc, acc); got != 0 {
		t.Errorf("perfect estimates should give 0, got %v", got)
	}
}

func TestMeanKL(t *testing.T) {
	if got := MeanKL([]float64{0.7, 0.3}, []float64{0.7, 0.3}); got > 1e-12 {
		t.Errorf("identical accuracies should give ~0 KL, got %v", got)
	}
	if MeanKL([]float64{0.9}, []float64{0.1}) <= 0 {
		t.Error("different accuracies should give positive KL")
	}
	if MeanKL(nil, nil) != 0 {
		t.Error("empty should give 0")
	}
}

func TestRelativeDifference(t *testing.T) {
	if got := RelativeDifference(0.9, 1.0); math.Abs(got-(-10)) > 1e-12 {
		t.Errorf("RelativeDifference = %v, want -10", got)
	}
	if RelativeDifference(1, 0) != 0 {
		t.Error("division by zero should give 0")
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("Mean of no samples should be 0")
	}
}
