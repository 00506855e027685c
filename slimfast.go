// Package slimfast is a Go implementation of SLiMFast (Joglekar et al.,
// SIGMOD 2017): data fusion with guaranteed results via discriminative
// probabilistic models.
//
// Data fusion unifies conflicting claims from many sources ("does gene
// GIGYF2 associate with Parkinson's?") into one estimate per object
// while learning how reliable each source is. SLiMFast models the
// posterior over true values as a logistic regression whose per-source
// reliability scores combine a source indicator with domain-specific
// features (citation counts, traffic statistics, worker channels, ...),
// learns the weights with ERM when ground truth is available or EM
// otherwise, and ships an optimizer that picks between the two.
//
// # Quick start
//
//	p := slimfast.NewProblem("genomics")
//	p.AddObservation("article1", "GIGYF2,Parkinson", "false")
//	p.AddObservation("article2", "GIGYF2,Parkinson", "false")
//	p.AddObservation("article3", "GIGYF2,Parkinson", "true")
//	p.AddFeature("article1", "citations=high")
//	p.SetTruth("GBA,Parkinson", "true")
//	report, err := p.Solve()
//	// report.Value("GIGYF2,Parkinson") == "false"
//	// report.SourceAccuracy("article3") ≈ low
//
// The internal packages expose the full machinery (the model and its
// learners, baselines, the experiment harness reproducing every table
// and figure of the paper); this package is the stable user-facing
// surface.
package slimfast

import (
	"errors"
	"fmt"
	"io"

	"slimfast/internal/core"
	"slimfast/internal/data"
	"slimfast/internal/lasso"
)

// Algorithm selects how model weights are learned.
type Algorithm string

const (
	// Auto lets SLiMFast's optimizer choose between ERM and EM.
	Auto Algorithm = "auto"
	// ERM uses empirical risk minimization (requires ground truth).
	ERM Algorithm = "erm"
	// EM uses (semi-supervised) expectation maximization.
	EM Algorithm = "em"
)

// Option customizes Solve.
type Option func(*solveConfig)

type solveConfig struct {
	algorithm Algorithm
	opts      core.Options
	optimizer core.OptimizerOptions
}

// WithAlgorithm forces a learning algorithm instead of the optimizer's
// choice.
func WithAlgorithm(a Algorithm) Option {
	return func(c *solveConfig) { c.algorithm = a }
}

// WithoutFeatures ignores domain features (the Sources-only model).
func WithoutFeatures() Option {
	return func(c *solveConfig) { c.opts.UseFeatures = false }
}

// WithCopyDetection enables Appendix D's pairwise copying features for
// source pairs co-observing at least minOverlap objects.
func WithCopyDetection(minOverlap int) Option {
	return func(c *solveConfig) {
		c.opts.CopyFeatures = true
		c.opts.MinCopyOverlap = minOverlap
	}
}

// WithSeed fixes the random seed used by learning (results are
// deterministic for a fixed seed).
func WithSeed(seed int64) Option {
	return func(c *solveConfig) { c.opts.Optim.Seed = seed }
}

// WithParallelism bounds the worker goroutines used by learning and
// inference. n <= 0 selects runtime.GOMAXPROCS(0), the default; n == 1
// runs everything on the calling goroutine. The parallel subsystem is
// deterministic by construction and n never selects an algorithm, so
// Solve returns identical results for every setting — the knob only
// trades goroutines for wall-clock.
func WithParallelism(n int) Option {
	return func(c *solveConfig) { c.opts.Workers = n }
}

// WithOptimizerThreshold sets τ, the ERM-bound threshold of the EM/ERM
// optimizer (the paper uses 0.1).
func WithOptimizerThreshold(tau float64) Option {
	return func(c *solveConfig) { c.optimizer.Tau = tau }
}

// Problem accumulates observations, features and ground truth before
// solving. It is not safe for concurrent mutation.
type Problem struct {
	name    string
	builder *data.Builder
	truth   map[string]string
}

// NewProblem creates an empty fusion problem.
func NewProblem(name string) *Problem {
	return &Problem{
		name:    name,
		builder: data.NewBuilder(name),
		truth:   map[string]string{},
	}
}

// AddObservation records that source claims object has value. A
// repeated (source, object) pair overwrites the earlier claim.
func (p *Problem) AddObservation(source, object, value string) {
	p.builder.ObserveNames(source, object, value)
}

// AddFeature marks a Boolean domain feature (e.g. "citations=high") as
// active for the source.
func (p *Problem) AddFeature(source, feature string) {
	p.builder.SetFeature(p.builder.Source(source), feature)
}

// SetTruth provides a ground-truth label for an object. Labels power
// ERM and anchor semi-supervised EM.
func (p *Problem) SetTruth(object, value string) {
	p.truth[object] = value
}

// Report is the solved output.
type Report struct {
	ds        *data.Dataset
	result    *core.Result
	model     *core.Model
	decision  core.Decision
	algorithm Algorithm
}

// Solve compiles the problem and runs fusion. The Problem must not be
// modified afterwards, and solving it a second time is an error.
func (p *Problem) Solve(options ...Option) (*Report, error) {
	if p.builder == nil {
		return nil, errors.New("slimfast: problem already solved")
	}
	cfg := &solveConfig{
		algorithm: Auto,
		opts:      core.DefaultOptions(),
		optimizer: core.DefaultOptimizerOptions(),
	}
	for _, o := range options {
		o(cfg)
	}
	ds := p.builder.Freeze()
	p.builder = nil
	if ds.NumObservations() == 0 {
		return nil, errors.New("slimfast: no observations")
	}
	train, err := data.TruthFromNames(ds, p.truth)
	if err != nil {
		return nil, err
	}
	m, err := core.Compile(ds, cfg.opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{ds: ds, model: m, algorithm: cfg.algorithm}
	switch cfg.algorithm {
	case Auto:
		res, dec, err := m.FuseAuto(train, cfg.optimizer)
		if err != nil {
			return nil, err
		}
		rep.result = res
		rep.decision = dec
		rep.algorithm = Algorithm(dec.Algorithm.String())
	case ERM:
		res, err := m.Fuse(core.AlgorithmERM, train)
		if err != nil {
			return nil, err
		}
		rep.result = res
	case EM:
		res, err := m.Fuse(core.AlgorithmEM, train)
		if err != nil {
			return nil, err
		}
		rep.result = res
	default:
		return nil, fmt.Errorf("slimfast: unknown algorithm %q", cfg.algorithm)
	}
	return rep, nil
}

// Algorithm reports which learner produced the result ("erm" or "em").
func (r *Report) Algorithm() Algorithm { return r.algorithm }

// Value returns the fused value for an object, or "" with ok=false
// when the object is unknown or has no observations.
func (r *Report) Value(object string) (string, bool) {
	o, ok := r.objectID(object)
	if !ok {
		return "", false
	}
	v, ok := r.result.Values[o]
	if !ok {
		return "", false
	}
	return r.ds.ValueNames[v], true
}

// Confidence returns the posterior probability of the fused value for
// the object (0 when unknown).
func (r *Report) Confidence(object string) float64 {
	o, ok := r.objectID(object)
	if !ok {
		return 0
	}
	v, ok := r.result.Values[o]
	if !ok {
		return 0
	}
	return r.result.Posterior(o)[v]
}

// Posterior returns the full posterior over the values sources claimed
// for the object (nil when unknown).
func (r *Report) Posterior(object string) map[string]float64 {
	o, ok := r.objectID(object)
	if !ok {
		return nil
	}
	post := r.result.Posterior(o)
	if post == nil {
		return nil
	}
	out := make(map[string]float64, len(post))
	for v, p := range post {
		out[r.ds.ValueNames[v]] = p
	}
	return out
}

// Values returns every fused (object, value) pair.
func (r *Report) Values() map[string]string {
	out := make(map[string]string, len(r.result.Values))
	for o, v := range r.result.Values {
		out[r.ds.ObjectNames[o]] = r.ds.ValueNames[v]
	}
	return out
}

// SourceAccuracy returns the estimated accuracy A_s of the source
// (0.5 for unknown sources).
func (r *Report) SourceAccuracy(source string) float64 {
	for s, n := range r.ds.SourceNames {
		if n == source {
			return r.result.SourceAccuracies[s]
		}
	}
	return 0.5
}

// SourceAccuracies returns every source's estimated accuracy.
func (r *Report) SourceAccuracies() map[string]float64 {
	out := make(map[string]float64, r.ds.NumSources())
	for s, n := range r.ds.SourceNames {
		out[n] = r.result.SourceAccuracies[s]
	}
	return out
}

// PredictSourceAccuracy estimates the accuracy of a source with no
// observations from its feature labels alone (source-reliability
// initialization, Section 5.3.2 of the paper).
func (r *Report) PredictSourceAccuracy(features []string) float64 {
	return r.model.PredictAccuracy(features)
}

// FeatureWeights returns the learned weight of every domain feature;
// positive weights mark features associated with accurate sources.
func (r *Report) FeatureWeights() map[string]float64 {
	out := make(map[string]float64, r.ds.NumFeatures())
	for k, n := range r.ds.FeatureNames {
		out[n] = r.model.FeatureWeight(data.FeatureID(k))
	}
	return out
}

// CopyPairs returns the detected copier pairs with their weights,
// strongest first, when Solve ran with WithCopyDetection.
func (r *Report) CopyPairs() []CopyPair {
	n := r.model.NumCopyPairs()
	out := make([]CopyPair, 0, n)
	for p := 0; p < n; p++ {
		a, b, w := r.model.CopyPair(p)
		out = append(out, CopyPair{
			SourceA: r.ds.SourceNames[a],
			SourceB: r.ds.SourceNames[b],
			Weight:  w,
		})
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Weight > out[i].Weight {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// CopyPair is a suspected copying relationship between two sources.
type CopyPair struct {
	SourceA, SourceB string
	Weight           float64
}

// OptimizerDecision explains the EM/ERM choice (only meaningful for
// Auto runs).
type OptimizerDecision struct {
	Algorithm   Algorithm
	ERMUnits    float64
	EMUnits     float64
	AvgAccuracy float64
}

// Decision returns the optimizer's reasoning for an Auto run.
func (r *Report) Decision() OptimizerDecision {
	return OptimizerDecision{
		Algorithm:   Algorithm(r.decision.Algorithm.String()),
		ERMUnits:    r.decision.ERMUnits,
		EMUnits:     r.decision.EMUnits,
		AvgAccuracy: r.decision.AvgAccuracy,
	}
}

func (r *Report) objectID(object string) (data.ObjectID, bool) {
	for o, n := range r.ds.ObjectNames {
		if n == object {
			return data.ObjectID(o), true
		}
	}
	return 0, false
}

// LassoPath computes feature-importance trajectories for a solved
// problem's dataset using its ground truth (Section 5.3.1). It returns
// feature names in activation order (earliest-activating — most
// predictive — first).
func (r *Report) LassoPath(truth map[string]string, steps int) ([]string, error) {
	tm, err := data.TruthFromNames(r.ds, truth)
	if err != nil {
		return nil, err
	}
	opts := lasso.DefaultOptions()
	if steps > 1 {
		opts.Steps = steps
	}
	p, err := lasso.Compute(r.ds, tm, opts)
	if err != nil {
		return nil, err
	}
	order := p.ActivationOrder(1e-6)
	out := make([]string, len(order))
	for i, k := range order {
		out[i] = p.FeatureNames[k]
	}
	return out, nil
}

// WriteJSON serializes the solved dataset and its fused values for
// downstream tools.
func (r *Report) WriteJSON(w io.Writer) error {
	return data.WriteJSON(w, r.ds, data.TruthMap(r.result.Values))
}
