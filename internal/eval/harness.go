package eval

import (
	"fmt"
	"sync"
	"time"

	"slimfast/internal/baselines"
	"slimfast/internal/data"
	"slimfast/internal/metrics"
	"slimfast/internal/parallel"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// Trial is one (method, instance, training-fraction, seed) run with its
// measured quality and cost.
type Trial struct {
	Method      string
	Dataset     string
	TrainFrac   float64
	Seed        int64
	ObjAccuracy float64
	// SourceError is the paper's weighted absolute accuracy error;
	// NaN-free: -1 when the method has no probabilistic accuracies.
	SourceError float64
	Runtime     time.Duration
	// Decision is "erm"/"em" for the auto variant, "" otherwise.
	Decision string
}

// RunTrial splits the instance's gold labels (trainFrac into training,
// the rest into test), runs the method, and scores it. The split seed
// is derived from the base seed, the method and the fraction so that
// all methods at the same (fraction, seed) see the same split — the
// paper's protocol.
func RunTrial(m baselines.Method, inst *synth.Instance, trainFrac float64, seed int64) (Trial, error) {
	splitSeed := randx.DeriveSeed(seed, fmt.Sprintf("split:%v", trainFrac))
	train, test := data.Split(inst.Gold, trainFrac, randx.New(splitSeed))
	t := Trial{
		Method:      m.Name(),
		Dataset:     inst.Dataset.Name,
		TrainFrac:   trainFrac,
		Seed:        seed,
		SourceError: -1,
	}
	start := time.Now()
	out, err := m.Fuse(inst.Dataset, train)
	t.Runtime = time.Since(start)
	if err != nil {
		return t, fmt.Errorf("eval: %s on %s: %w", m.Name(), inst.Dataset.Name, err)
	}
	t.ObjAccuracy = metrics.ObjectAccuracy(out.Values, test)
	if m.HasProbabilisticAccuracies() && out.SourceAccuracies != nil {
		trueAcc := inst.Dataset.TrueSourceAccuracies(inst.Gold)
		t.SourceError = metrics.SourceAccuracyError(inst.Dataset, out.SourceAccuracies, trueAcc)
	}
	if sf, ok := m.(*SLiMFast); ok && sf.mode == ModeAuto {
		t.Decision = sf.LastDecision.Algorithm.String()
	}
	return t, nil
}

// Cloner is implemented by methods whose Fuse mutates receiver state
// (e.g. the SLiMFast variants record timing and decision diagnostics).
// RunSeeds hands each concurrent trial its own clone; methods without
// a Clone are assumed to have a read-only Fuse (all baselines are
// plain configuration structs) and are shared across trials.
type Cloner interface {
	Clone() baselines.Method
}

// cloneFor returns an independent copy of m for a concurrent trial
// when the method requires one.
func cloneFor(m baselines.Method) baselines.Method {
	if c, ok := m.(Cloner); ok {
		return c.Clone()
	}
	return m
}

// RunSeeds repeats RunTrial once per seed, fanning the independent
// trials over up to workers goroutines (workers <= 0 means
// runtime.GOMAXPROCS(0)), and returns the trials in seed order. The
// trial quality numbers are deterministic: every seed's split and run
// depend only on the seed, never on scheduling. Seed 0 runs on m
// itself so callers can read post-run diagnostics from it; later seeds
// run on clones when m implements Cloner. The first error in seed
// order is returned alongside its trial.
func RunSeeds(m baselines.Method, inst *synth.Instance, trainFrac float64, seeds []int64, workers int) ([]Trial, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("eval: no seeds")
	}
	// Clone up front, before any trial can mutate m: cloning inside the
	// parallel region would read m's diagnostic fields while the seed-0
	// trial writes them.
	methods := make([]baselines.Method, len(seeds))
	for i := range methods {
		if i == 0 {
			methods[i] = m
			continue
		}
		methods[i] = cloneFor(m)
	}
	trials := make([]Trial, len(seeds))
	errs := make([]error, len(seeds))
	parallel.For(len(seeds), workers, func(i int) {
		trials[i], errs[i] = RunTrial(methods[i], inst, trainFrac, seeds[i])
	})
	for i, err := range errs {
		if err != nil {
			return trials, fmt.Errorf("seed %d: %w", seeds[i], err)
		}
	}
	return trials, nil
}

// RunAveraged repeats RunTrial over the seeds — concurrently, up to
// GOMAXPROCS trials at a time — and returns the mean trial (accuracy,
// source error and runtime averaged; the decision of the first seed is
// kept).
func RunAveraged(m baselines.Method, inst *synth.Instance, trainFrac float64, seeds []int64) (Trial, error) {
	if len(seeds) == 0 {
		return Trial{}, fmt.Errorf("eval: no seeds")
	}
	trials, err := RunSeeds(m, inst, trainFrac, seeds, 0)
	if err != nil {
		return trials[0], err
	}
	return averageTrials(trials), nil
}

// averageTrials folds per-seed trials into the mean trial, keeping the
// first seed's identity and decision.
func averageTrials(trials []Trial) Trial {
	var accs, errVals []float64
	var total time.Duration
	first := trials[0]
	for _, tr := range trials {
		accs = append(accs, tr.ObjAccuracy)
		if tr.SourceError >= 0 {
			errVals = append(errVals, tr.SourceError)
		}
		total += tr.Runtime
	}
	first.ObjAccuracy = metrics.Mean(accs)
	if len(errVals) > 0 {
		first.SourceError = metrics.Mean(errVals)
	}
	first.Runtime = total / time.Duration(len(trials))
	return first
}

// Config controls how heavy the experiment runs are. Quick mode shrinks
// the synthetic instances and seed counts so the full suite finishes in
// test/bench time; Full mode matches the paper's scale.
type Config struct {
	// Seeds per configuration (the paper averages 5 random splits).
	Seeds []int64
	// Quick shrinks Example 6's 1000×1000 instances and skips the
	// slowest dataset/TD combinations.
	Quick bool
	// DataSeed seeds dataset generation.
	DataSeed int64
}

// DefaultConfig holds cmd/experiments' flag defaults (3 seeds keeps
// the full suite minutes-scale while averaging out split noise).
func DefaultConfig() Config {
	return Config{Seeds: []int64{1, 2, 3}, DataSeed: 42}
}

// TrainFractions are the paper's training-data percentages (of
// objects) for Tables 2–5.
func (c Config) TrainFractions() []float64 {
	if c.Quick {
		return []float64{0.01, 0.10}
	}
	return []float64{0.001, 0.01, 0.05, 0.10, 0.20}
}

// DatasetNames returns the evaluation datasets, honouring Quick mode.
func (c Config) DatasetNames() []string {
	if c.Quick {
		return []string{"stocks", "crowd"}
	}
	return synth.AllNames()
}

// datasetCache memoizes calibrated datasets across experiments within
// one process: instances are immutable after generation, so sharing is
// safe, and regenerating Genomics (16k features) per table is wasteful.
var datasetCache sync.Map // key string -> *synth.Instance

// LoadDataset builds (and caches) a calibrated dataset by name.
func (c Config) LoadDataset(name string) (*synth.Instance, error) {
	key := fmt.Sprintf("%s@%d", name, c.DataSeed)
	if v, ok := datasetCache.Load(key); ok {
		return v.(*synth.Instance), nil
	}
	inst, err := synth.NamedDataset(name, c.DataSeed)
	if err != nil {
		return nil, err
	}
	datasetCache.Store(key, inst)
	return inst, nil
}

// Example6Instance builds the Figure 4 synthetic instance at the given
// accuracy and density, honouring Quick mode's smaller scale.
func (c Config) Example6Instance(avgAcc, density float64, seed int64) (*synth.Instance, error) {
	if !c.Quick {
		return synth.Example6(avgAcc, density, seed)
	}
	// Quick mode: 200×200 with density scaled ×5 to preserve the
	// expected observations per object.
	return synth.Generate(synth.Config{
		Name: "example6-quick", Sources: 200, Objects: 200, DomainSize: 2,
		Assignment: synth.IIDDensity, Density: density * 5,
		MeanAccuracy: avgAcc, AccuracySD: 0.15,
		MinAccuracy: 0.3, MaxAccuracy: 0.95,
		EnsureTruthObserved: true, Seed: seed,
	})
}
