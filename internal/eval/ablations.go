package eval

import (
	"fmt"
	"io"

	"slimfast/internal/core"
	"slimfast/internal/data"
	"slimfast/internal/metrics"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// RunAblations measures the quality impact of these design choices
// (their runtime impact lives in the BenchmarkAblation* benchmarks of
// bench_test.go):
//
//   - the post-EM calibration pass on vs off,
//   - the paper's closed-form average-accuracy estimator vs the
//     overlap-weighted one that Decide uses, per dataset,
//   - L2 vs L1 regularization (optim.Config's two penalties) for the
//     feature-heavy ERM fit.
func RunAblations(w io.Writer, cfg Config) error {
	inst, err := synth.Generate(synth.Config{
		Name: "ablation", Sources: 70, Objects: 700, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.12,
		MeanAccuracy: 0.62, AccuracySD: 0.15, MinAccuracy: 0.35, MaxAccuracy: 0.95,
		WrongBias: 0.5,
		Features: []synth.FeatureGroup{
			{Name: "sig", Cardinality: 8, Informative: true, WeightScale: 2.0},
			{Name: "junk", Cardinality: 8, Informative: false},
		},
		EnsureTruthObserved: true,
		Seed:                cfg.DataSeed,
	})
	if err != nil {
		return err
	}
	train, test := data.Split(inst.Gold, 0.10, randx.New(cfg.Seeds[0]))
	trueAcc := inst.Dataset.TrueSourceAccuracies(inst.Gold)

	fitEval := func(opts core.Options, alg core.Algorithm) (objAcc, srcErr float64, err error) {
		m, err := core.Compile(inst.Dataset, opts)
		if err != nil {
			return 0, 0, err
		}
		res, err := m.Fuse(alg, train)
		if err != nil {
			return 0, 0, err
		}
		return metrics.ObjectAccuracy(res.Values, test),
			metrics.SourceAccuracyError(inst.Dataset, res.SourceAccuracies, trueAcc), nil
	}

	tw := newTab(w)
	fmt.Fprintln(tw, "Ablation\tVariant\tObjAcc\tSrcErr")

	// EM calibration on vs off.
	calOn := core.DefaultOptions()
	a1, e1, err := fitEval(calOn, core.AlgorithmEM)
	if err != nil {
		return err
	}
	calOff := core.DefaultOptions()
	calOff.EMCalibrate = false
	a2, e2, err := fitEval(calOff, core.AlgorithmEM)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "em-calibration\ton\t%.3f\t%.3f\n", a1, e1)
	fmt.Fprintf(tw, "em-calibration\toff\t%.3f\t%.3f\n", a2, e2)

	// Regularization: L2 vs L1.
	l2 := core.DefaultOptions()
	a3, e3, err := fitEval(l2, core.AlgorithmERM)
	if err != nil {
		return err
	}
	l1 := core.DefaultOptions()
	l1.Optim.L2 = 0
	l1.Optim.L1 = 1e-3
	a4, e4, err := fitEval(l1, core.AlgorithmERM)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "regularization\tl2\t%.3f\t%.3f\n", a3, e3)
	fmt.Fprintf(tw, "regularization\tl1\t%.3f\t%.3f\n", a4, e4)
	if err := tw.Flush(); err != nil {
		return err
	}

	// Agreement estimator per dataset.
	fmt.Fprintln(w, "\nAverage-accuracy estimator (true mean vs estimates):")
	tw = newTab(w)
	fmt.Fprintln(tw, "Dataset\tTrueMean\tPaperClosedForm\tOverlapWeighted")
	for _, name := range cfg.DatasetNames() {
		di, err := cfg.LoadDataset(name)
		if err != nil {
			return err
		}
		trueMean := di.Dataset.AvgSourceAccuracy(di.Gold)
		paper := core.EstimateAverageAccuracy(di.Dataset, false)
		weighted := core.EstimateAverageAccuracy(di.Dataset, true)
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\n", name, trueMean, paper, weighted)
	}
	return tw.Flush()
}
