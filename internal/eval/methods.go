// Package eval is the experiment harness that regenerates every table
// and figure in the SLiMFast paper's evaluation (Section 5 and the
// appendices). It wraps the SLiMFast variants and the baselines behind
// one Method interface, runs seeded trials over the calibrated dataset
// simulators, and renders the paper-style tables.
package eval

import (
	"time"

	"slimfast/internal/baselines"
	"slimfast/internal/core"
	"slimfast/internal/data"
)

// Mode selects how a SLiMFast variant learns.
type Mode int

const (
	// ModeAuto uses SLiMFast's optimizer to pick ERM or EM (the
	// "SLiMFast" rows of the paper).
	ModeAuto Mode = iota
	// ModeERM always uses empirical risk minimization.
	ModeERM
	// ModeEM always uses expectation maximization.
	ModeEM
)

// SLiMFast adapts a core.Model configuration to the Method interface.
// The zero value is not usable; use the New* constructors.
type SLiMFast struct {
	label     string
	mode      Mode
	opts      core.Options
	optimizer core.OptimizerOptions

	// Diagnostics from the last Fuse call, used by Tables 4–6.
	LastDecision    core.Decision
	LastCompileTime time.Duration
	LastLearnTime   time.Duration
}

// NewSLiMFast returns the full system: domain features plus the
// EM/ERM optimizer (the paper's "SLiMFast" column, τ = 0.1).
func NewSLiMFast() *SLiMFast {
	return &SLiMFast{
		label:     "SLiMFast",
		mode:      ModeAuto,
		opts:      core.DefaultOptions(),
		optimizer: core.DefaultOptimizerOptions(),
	}
}

// NewSLiMFastERM returns SLiMFast-ERM: features, always ERM.
func NewSLiMFastERM() *SLiMFast {
	m := NewSLiMFast()
	m.label = "SLiMFast-ERM"
	m.mode = ModeERM
	return m
}

// NewSLiMFastEM returns SLiMFast-EM: features, always EM.
func NewSLiMFastEM() *SLiMFast {
	m := NewSLiMFast()
	m.label = "SLiMFast-EM"
	m.mode = ModeEM
	return m
}

// NewSourcesERM returns Sources-ERM: the discriminative model without
// domain features, always ERM.
func NewSourcesERM() *SLiMFast {
	m := NewSLiMFast()
	m.label = "S-ERM"
	m.mode = ModeERM
	m.opts.UseFeatures = false
	return m
}

// NewSourcesEM returns Sources-EM: no features, always EM (the
// discriminative analogue of Zhao et al.).
func NewSourcesEM() *SLiMFast {
	m := NewSLiMFast()
	m.label = "S-EM"
	m.mode = ModeEM
	m.opts.UseFeatures = false
	return m
}

// NewSLiMFastCopying returns SLiMFast with the Appendix D copying
// features enabled and domain features disabled, matching Figure 8's
// configuration. It learns with semi-supervised EM: copy weights are
// driven by agreement-on-mistakes, and with the small training
// fractions of Figure 8 the unlabeled posteriors carry most of that
// signal.
func NewSLiMFastCopying(minOverlap int) *SLiMFast {
	m := NewSLiMFast()
	m.label = "SLiMFast-Copy"
	m.mode = ModeEM
	m.opts.UseFeatures = false
	m.opts.CopyFeatures = true
	m.opts.MinCopyOverlap = minOverlap
	return m
}

// Clone implements Cloner: concurrent trials each get an independent
// copy so the Last* diagnostic fields never race. The options structs
// are value types (the ObjectClasses slice, when set, is shared but
// read-only).
func (s *SLiMFast) Clone() baselines.Method {
	c := *s
	return &c
}

// Name implements Method.
func (s *SLiMFast) Name() string { return s.label }

// HasProbabilisticAccuracies implements Method: all SLiMFast variants
// estimate A_s = logistic(σ_s).
func (s *SLiMFast) HasProbabilisticAccuracies() bool { return true }

// Fuse implements Method.
func (s *SLiMFast) Fuse(ds *data.Dataset, train data.TruthMap) (*baselines.Output, error) {
	t0 := time.Now()
	m, err := core.Compile(ds, s.opts)
	if err != nil {
		return nil, err
	}
	s.LastCompileTime = time.Since(t0)

	t1 := time.Now()
	var res *core.Result
	switch s.mode {
	case ModeAuto:
		var dec core.Decision
		res, dec, err = m.FuseAuto(train, s.optimizer)
		s.LastDecision = dec
	case ModeERM:
		res, err = m.Fuse(core.AlgorithmERM, train)
	case ModeEM:
		res, err = m.Fuse(core.AlgorithmEM, train)
	}
	s.LastLearnTime = time.Since(t1)
	if err != nil {
		return nil, err
	}
	return &baselines.Output{
		Values:           res.Values,
		Posteriors:       res.Posteriors(),
		SourceAccuracies: res.SourceAccuracies,
	}, nil
}

// Model compiles and fits a model outside the Method interface, for
// experiments that need direct access (Figure 7's accuracy prediction,
// Figure 8's copy weights).
func (s *SLiMFast) Model(ds *data.Dataset, train data.TruthMap) (*core.Model, error) {
	m, err := core.Compile(ds, s.opts)
	if err != nil {
		return nil, err
	}
	switch s.mode {
	case ModeAuto:
		dec := core.Decide(ds, train, s.optimizer)
		s.LastDecision = dec
		alg := dec.Algorithm
		if len(train) == 0 {
			alg = core.AlgorithmEM
		}
		if alg == core.AlgorithmERM {
			_, err = m.FitERM(train)
		} else {
			_, err = m.FitEM(train)
		}
	case ModeERM:
		_, err = m.FitERM(train)
	case ModeEM:
		_, err = m.FitEM(train)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Table2Methods returns the seven methods of Table 2 in column order.
func Table2Methods() []baselines.Method {
	return []baselines.Method{
		NewSLiMFast(),
		NewSourcesERM(),
		NewSourcesEM(),
		baselines.NewCounts(),
		baselines.NewACCU(),
		baselines.NewCATD(),
		baselines.NewSSTF(),
	}
}

// Table3Methods returns the five probabilistic methods of Table 3.
func Table3Methods() []baselines.Method {
	return []baselines.Method{
		NewSLiMFast(),
		NewSourcesERM(),
		NewSourcesEM(),
		baselines.NewCounts(),
		baselines.NewACCU(),
	}
}
