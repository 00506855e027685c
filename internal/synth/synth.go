// Package synth generates synthetic data-fusion instances. It serves
// two roles in the reproduction:
//
//  1. The controlled workloads of Section 4.1 (Example 6 / Figure 4):
//     |S| sources × |O| objects with a configurable density p, average
//     source accuracy, and training fraction.
//  2. Calibrated simulators of the paper's four real datasets (Stocks,
//     Demonstrations, Crowd, Genomics), matched to the Table 1
//     statistics. The real datasets are proprietary/offline; these
//     simulators exercise the same code paths with the same shape
//     (sparsity, domain sizes, accuracy heterogeneity, feature signal,
//     copier cliques).
//
// Source accuracies are produced by a latent feature-logistic model:
// each source carries categorical domain features, a subset of feature
// groups genuinely drives accuracy, and the rest are noise. This gives
// the Lasso-path and unseen-source experiments a known ground truth to
// recover.
package synth

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/randx"
)

// Assignment selects how observations are placed.
type Assignment int

const (
	// IIDDensity observes each (source, object) pair independently
	// with probability Density (the paper's uniform-selectivity model).
	IIDDensity Assignment = iota
	// FixedPerObject assigns exactly ObsPerObject distinct sources to
	// each object (the crowdsourcing pattern: 20 workers per tweet).
	FixedPerObject
	// SkewedSources draws ObsPerObject sources per object from a
	// Zipfian distribution over sources (long-tail participation, as
	// in Genomics and Demonstrations).
	SkewedSources
)

// FeatureGroup describes one categorical domain feature ("PubYear",
// "BounceRate", ...). Each source gets Cardinality-way bucket(s); when
// Informative, each bucket carries a latent weight that shifts the
// source's true accuracy.
type FeatureGroup struct {
	Name        string
	Cardinality int
	Informative bool
	// WeightScale is the stddev of the latent bucket weights for
	// informative groups.
	WeightScale float64
	// PerSource is how many buckets a source activates in this group
	// (1 for ordinary categorical features; >1 models multi-label
	// features such as author lists). Defaults to 1.
	PerSource int
}

// CopyConfig plants copier cliques (Appendix D): each clique has one
// leader and Size-1 copiers that repeat the leader's observed value
// with probability CopyProb on objects both observe.
type CopyConfig struct {
	Cliques  int
	Size     int
	CopyProb float64
	// OverlapProb is the probability a copier is added as an observer
	// of an object its leader observes (beyond its own assignments),
	// controlling how detectable the copying is.
	OverlapProb float64
}

// Config controls dataset generation.
type Config struct {
	Name       string
	Sources    int
	Objects    int
	DomainSize int // number of distinct values an object can take

	Assignment   Assignment
	Density      float64 // for IIDDensity
	ObsPerObject int     // for FixedPerObject / SkewedSources
	SourceSkew   float64 // Zipf exponent for SkewedSources

	// MeanAccuracy is the target average of the true source
	// accuracies; AccuracySD controls heterogeneity; accuracies are
	// clamped to [MinAccuracy, MaxAccuracy].
	MeanAccuracy float64
	AccuracySD   float64
	MinAccuracy  float64
	MaxAccuracy  float64

	// WrongBias makes errors correlate: a wrong answer lands on the
	// object's designated "distractor" value (shared by all sources)
	// with a per-object probability drawn uniformly from
	// [0, WrongBias], instead of a uniform wrong value. Real data has
	// confusable values — crowd workers mix up neutral/unrelated
	// sentiment, scrapers serve the same stale number — with the
	// confusability varying by object; that per-object variation is
	// what makes naive majority voting fail on some objects while
	// weighted fusion recovers them.
	WrongBias float64

	Features []FeatureGroup

	Copying CopyConfig

	// EnsureTruthObserved enforces the paper's single-truth semantics:
	// every object with at least one observation has at least one
	// source reporting the true value. When an object would have none,
	// one of its observations is flipped to the truth.
	EnsureTruthObserved bool

	Seed int64
}

// Instance is a generated fusion problem with its hidden ground truth.
type Instance struct {
	Dataset *data.Dataset
	// Gold labels every object that received observations.
	Gold data.TruthMap
	// TrueAccuracy[s] is the latent accuracy used to generate source
	// s's observations (before the EnsureTruthObserved fix-ups).
	TrueAccuracy []float64
	// TrueFeatureWeights maps feature labels to the latent weights
	// that generated accuracies; noise features map to 0. Used by the
	// Lasso-path experiment to check recovery.
	TrueFeatureWeights map[string]float64
	// CopierPairs lists the planted (leader, copier) pairs.
	CopierPairs [][2]data.SourceID
	// Cliques lists every planted clique (leader first). Any two
	// members of one clique are correlated: copiers repeat the same
	// leader, so copier-copier pairs agree as strongly as
	// leader-copier pairs.
	Cliques [][]data.SourceID
}

// CorrelatedPairs returns every unordered within-clique pair (in both
// orientations) as a set, for checking whether a detected copy pair
// was planted.
func (in *Instance) CorrelatedPairs() map[[2]data.SourceID]bool {
	out := map[[2]data.SourceID]bool{}
	for _, clique := range in.Cliques {
		for i := 0; i < len(clique); i++ {
			for j := i + 1; j < len(clique); j++ {
				out[[2]data.SourceID{clique[i], clique[j]}] = true
				out[[2]data.SourceID{clique[j], clique[i]}] = true
			}
		}
	}
	return out
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Sources < 2 {
		return errors.New("synth: need at least 2 sources")
	}
	if c.Objects < 1 {
		return errors.New("synth: need at least 1 object")
	}
	if c.DomainSize < 2 {
		return errors.New("synth: DomainSize must be >= 2")
	}
	switch c.Assignment {
	case IIDDensity:
		if c.Density <= 0 || c.Density > 1 {
			return fmt.Errorf("synth: density %v out of (0,1]", c.Density)
		}
	case FixedPerObject, SkewedSources:
		if c.ObsPerObject < 1 || c.ObsPerObject > c.Sources {
			return fmt.Errorf("synth: ObsPerObject %d out of [1,%d]", c.ObsPerObject, c.Sources)
		}
	default:
		return fmt.Errorf("synth: unknown assignment %d", c.Assignment)
	}
	if c.MeanAccuracy <= 0 || c.MeanAccuracy >= 1 {
		return fmt.Errorf("synth: MeanAccuracy %v out of (0,1)", c.MeanAccuracy)
	}
	if c.MinAccuracy < 0 || c.MaxAccuracy > 1 || c.MinAccuracy >= c.MaxAccuracy {
		return fmt.Errorf("synth: accuracy clamp [%v,%v] invalid", c.MinAccuracy, c.MaxAccuracy)
	}
	if c.WrongBias < 0 || c.WrongBias > 1 {
		return fmt.Errorf("synth: WrongBias %v out of [0,1]", c.WrongBias)
	}
	if c.Copying.Cliques > 0 {
		if c.Copying.Size < 2 {
			return errors.New("synth: copier clique size must be >= 2")
		}
		if c.Copying.Cliques*c.Copying.Size > c.Sources {
			return errors.New("synth: copier cliques exceed source count")
		}
		if c.Copying.CopyProb <= 0 || c.Copying.CopyProb > 1 {
			return errors.New("synth: CopyProb out of (0,1]")
		}
		if c.Copying.OverlapProb < 0 || c.Copying.OverlapProb > 1 {
			return errors.New("synth: OverlapProb out of [0,1]")
		}
	}
	return nil
}

// Generate builds an Instance from the configuration. Generation is
// fully deterministic in Config.Seed.
func Generate(cfg Config) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := randx.New(cfg.Seed)
	b := data.NewBuilder(cfg.Name)

	// Intern sources, objects, values up front for dense stable ids.
	for s := 0; s < cfg.Sources; s++ {
		b.Source(fmt.Sprintf("s%04d", s))
	}
	for o := 0; o < cfg.Objects; o++ {
		b.Object(fmt.Sprintf("o%05d", o))
	}
	for v := 0; v < cfg.DomainSize; v++ {
		b.Value(fmt.Sprintf("v%03d", v))
	}

	// Assign feature buckets and latent weights.
	featRNG := rng.Child("features")
	trueWeights := map[string]float64{}
	sourceSigma := make([]float64, cfg.Sources) // latent feature signal
	for _, fg := range cfg.Features {
		card := fg.Cardinality
		if card < 1 {
			return nil, fmt.Errorf("synth: feature group %q has cardinality %d", fg.Name, card)
		}
		per := fg.PerSource
		if per < 1 {
			per = 1
		}
		if per > card {
			per = card
		}
		bucketW := make([]float64, card)
		if fg.Informative {
			for i := range bucketW {
				bucketW[i] = featRNG.NormFloat64() * fg.WeightScale
			}
		}
		// Intern the whole vocabulary: Table 1's "# Feature Values"
		// counts distinct feature values, including rarely used ones.
		for i := 0; i < card; i++ {
			label := fmt.Sprintf("%s=%d", fg.Name, i)
			trueWeights[label] = bucketW[i]
			b.Feature(label)
		}
		for s := 0; s < cfg.Sources; s++ {
			buckets := featRNG.SampleWithoutReplacement(card, per)
			for _, bk := range buckets {
				label := fmt.Sprintf("%s=%d", fg.Name, bk)
				b.SetFeature(data.SourceID(s), label)
				sourceSigma[s] += bucketW[bk]
			}
		}
	}

	// Per-source idiosyncratic noise on top of the feature signal.
	accRNG := rng.Child("accuracy")
	for s := range sourceSigma {
		sourceSigma[s] += accRNG.NormFloat64() * logitSD(cfg)
	}
	// Shift by a bias chosen (via bisection) so the mean clamped
	// accuracy hits MeanAccuracy.
	bias := solveBias(sourceSigma, cfg)
	trueAcc := make([]float64, cfg.Sources)
	for s := range trueAcc {
		trueAcc[s] = mathx.Clamp(mathx.Logistic(sourceSigma[s]+bias), cfg.MinAccuracy, cfg.MaxAccuracy)
	}

	// Copier cliques: reserve the first Cliques*Size sources.
	var copierPairs [][2]data.SourceID
	var cliques [][]data.SourceID
	copyLeader := make([]int, cfg.Sources) // leader index or -1
	for s := range copyLeader {
		copyLeader[s] = -1
	}
	if cfg.Copying.Cliques > 0 {
		for c := 0; c < cfg.Copying.Cliques; c++ {
			base := c * cfg.Copying.Size
			leader := base
			clique := []data.SourceID{data.SourceID(leader)}
			for m := 1; m < cfg.Copying.Size; m++ {
				copier := base + m
				copyLeader[copier] = leader
				copierPairs = append(copierPairs, [2]data.SourceID{data.SourceID(leader), data.SourceID(copier)})
				clique = append(clique, data.SourceID(copier))
			}
			cliques = append(cliques, clique)
		}
	}

	// Hidden true values, plus a per-object distractor wrong values
	// gravitate to when WrongBias > 0.
	truthRNG := rng.Child("truth")
	trueVal := make([]data.ValueID, cfg.Objects)
	distractor := make([]data.ValueID, cfg.Objects)
	distractorBias := make([]float64, cfg.Objects)
	for o := range trueVal {
		trueVal[o] = data.ValueID(truthRNG.Intn(cfg.DomainSize))
		distractor[o] = data.ValueID(truthRNG.IntnExcept(cfg.DomainSize, int(trueVal[o])))
		distractorBias[o] = truthRNG.Float64() * cfg.WrongBias
	}

	// Observation placement.
	obsRNG := rng.Child("observations")
	observers := make([][]int, cfg.Objects)
	switch cfg.Assignment {
	case IIDDensity:
		for o := 0; o < cfg.Objects; o++ {
			for s := 0; s < cfg.Sources; s++ {
				if obsRNG.Bernoulli(cfg.Density) {
					observers[o] = append(observers[o], s)
				}
			}
		}
	case FixedPerObject:
		for o := 0; o < cfg.Objects; o++ {
			observers[o] = obsRNG.SampleWithoutReplacement(cfg.Sources, cfg.ObsPerObject)
		}
	case SkewedSources:
		draw := obsRNG.Zipf(cfg.Sources, cfg.SourceSkew)
		for o := 0; o < cfg.Objects; o++ {
			seen := map[int]bool{}
			for len(seen) < cfg.ObsPerObject {
				seen[draw()] = true
			}
			obs := make([]int, 0, len(seen))
			for s := range seen {
				obs = append(obs, s)
			}
			// Map iteration order is random; sort so the downstream
			// value draws are deterministic in the seed.
			sort.Ints(obs)
			observers[o] = obs
		}
	}
	// Give copiers extra overlap with their leaders (a copier that
	// never overlaps its leader is undetectable and uninteresting).
	if cfg.Copying.Cliques > 0 && cfg.Copying.OverlapProb > 0 {
		overlapRNG := rng.Child("copy-overlap")
		for o := range observers {
			inSet := map[int]bool{}
			for _, s := range observers[o] {
				inSet[s] = true
			}
			for s := 0; s < cfg.Sources; s++ {
				l := copyLeader[s]
				if l >= 0 && inSet[l] && !inSet[s] && overlapRNG.Bernoulli(cfg.Copying.OverlapProb) {
					observers[o] = append(observers[o], s)
					inSet[s] = true
				}
			}
		}
	}

	// Emit values: leaders and independents report the truth w.p.
	// their accuracy; copiers repeat their leader w.p. CopyProb.
	valRNG := rng.Child("values")
	for o := 0; o < cfg.Objects; o++ {
		reported := map[int]data.ValueID{}
		emit := func(s int) data.ValueID {
			if v, done := reported[s]; done {
				return v
			}
			var v data.ValueID
			if l := copyLeader[s]; l >= 0 && valRNG.Bernoulli(cfg.Copying.CopyProb) {
				// Copy the leader's (possibly wrong) value; materialize
				// the leader's report even if the leader doesn't
				// observe this object.
				lv, ok := reported[l]
				if !ok {
					lv = drawValueBiased(valRNG, trueVal[o], distractor[o], trueAcc[l], cfg.DomainSize, distractorBias[o])
					reported[l] = lv
				}
				v = lv
			} else {
				v = drawValueBiased(valRNG, trueVal[o], distractor[o], trueAcc[s], cfg.DomainSize, distractorBias[o])
			}
			reported[s] = v
			return v
		}
		anyCorrect := false
		for _, s := range observers[o] {
			v := emit(s)
			if v == trueVal[o] {
				anyCorrect = true
			}
		}
		if cfg.EnsureTruthObserved && !anyCorrect && len(observers[o]) > 0 {
			fix := observers[o][valRNG.Intn(len(observers[o]))]
			reported[fix] = trueVal[o]
		}
		for _, s := range observers[o] {
			b.Observe(data.SourceID(s), data.ObjectID(o), reported[s])
		}
	}

	d := b.Freeze()
	gold := data.TruthMap{}
	for o := 0; o < cfg.Objects; o++ {
		if len(d.Domain(data.ObjectID(o))) > 0 {
			gold[data.ObjectID(o)] = trueVal[o]
		}
	}
	return &Instance{
		Dataset:            d,
		Gold:               gold,
		TrueAccuracy:       trueAcc,
		TrueFeatureWeights: trueWeights,
		CopierPairs:        copierPairs,
		Cliques:            cliques,
	}, nil
}

// drawValueBiased reports the truth with probability acc; otherwise a
// wrong value, which is the object's distractor with probability
// wrongBias and uniform over the remaining wrong values otherwise.
func drawValueBiased(rng *randx.RNG, truth, distractor data.ValueID, acc float64, domain int, wrongBias float64) data.ValueID {
	if rng.Bernoulli(acc) {
		return truth
	}
	if wrongBias > 0 && rng.Bernoulli(wrongBias) {
		return distractor
	}
	return data.ValueID(rng.IntnExcept(domain, int(truth)))
}

// logitSD converts the requested accuracy spread into logit-space
// noise: d logistic / dx at the mean is A(1-A).
func logitSD(cfg Config) float64 {
	slope := cfg.MeanAccuracy * (1 - cfg.MeanAccuracy)
	if slope < 0.05 {
		slope = 0.05
	}
	return cfg.AccuracySD / slope
}

// solveBias bisects for the bias that brings the mean clamped accuracy
// to cfg.MeanAccuracy.
func solveBias(sigma []float64, cfg Config) float64 {
	mean := func(bias float64) float64 {
		var s float64
		for _, x := range sigma {
			s += mathx.Clamp(mathx.Logistic(x+bias), cfg.MinAccuracy, cfg.MaxAccuracy)
		}
		return s / float64(len(sigma))
	}
	lo, hi := -20.0, 20.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if mean(mid) < cfg.MeanAccuracy {
			lo = mid
		} else {
			hi = mid
		}
	}
	b := (lo + hi) / 2
	if math.IsNaN(b) {
		return 0
	}
	return b
}
