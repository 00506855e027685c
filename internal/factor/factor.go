// Package factor implements a compact factor-graph representation with
// a Gibbs sampler. It stands in for the DeepDive sampler that the paper
// compiles SLiMFast's logistic-regression model onto (Section 3.2).
//
// The graph holds categorical variables and weighted factors. A factor
// connects a set of variables and contributes weight·potential(assign)
// to the log-density, so the joint distribution is
//
//	P(x) ∝ exp Σ_f weight_f · potential_f(x_f)
//
// Indicator potentials over single variables recover exactly SLiMFast's
// Equation 4; higher-arity potentials support extensions such as the
// copying-source features of Appendix D.
package factor

import (
	"errors"
	"fmt"

	"slimfast/internal/mathx"
	"slimfast/internal/parallel"
	"slimfast/internal/randx"
)

// Potential scores an assignment to the factor's variables. vals[i] is
// the current value of the factor's i-th variable. Implementations must
// be pure functions.
type Potential func(vals []int) float64

// Factor is one weighted potential over a set of variables.
type Factor struct {
	Vars      []int // indices into the graph's variables
	Weight    float64
	Potential Potential
}

// Graph is a factor graph under construction or sampling. The zero
// value is an empty graph ready for AddVariable/AddFactor.
type Graph struct {
	card       []int // cardinality per variable
	evidence   []int // fixed value per variable, -1 when latent
	factors    []Factor
	varFactors [][]int // factor indices adjacent to each variable
}

// AddVariable adds a categorical variable with the given cardinality
// and returns its index. Cardinality must be at least 1.
func (g *Graph) AddVariable(cardinality int) int {
	if cardinality < 1 {
		panic("factor: variable cardinality must be >= 1")
	}
	g.card = append(g.card, cardinality)
	g.evidence = append(g.evidence, -1)
	g.varFactors = append(g.varFactors, nil)
	return len(g.card) - 1
}

// SetEvidence pins variable v to value val (observed evidence). Pass
// val = -1 to clear evidence and make the variable latent again.
func (g *Graph) SetEvidence(v, val int) error {
	if v < 0 || v >= len(g.card) {
		return fmt.Errorf("factor: variable %d out of range", v)
	}
	if val >= g.card[v] || val < -1 {
		return fmt.Errorf("factor: evidence %d out of range for cardinality %d", val, g.card[v])
	}
	g.evidence[v] = val
	return nil
}

// AddFactor attaches a weighted potential over the given variables.
func (g *Graph) AddFactor(f Factor) error {
	if f.Potential == nil {
		return errors.New("factor: nil potential")
	}
	if len(f.Vars) == 0 {
		return errors.New("factor: factor with no variables")
	}
	for _, v := range f.Vars {
		if v < 0 || v >= len(g.card) {
			return fmt.Errorf("factor: variable %d out of range", v)
		}
	}
	idx := len(g.factors)
	g.factors = append(g.factors, f)
	for _, v := range f.Vars {
		g.varFactors[v] = append(g.varFactors[v], idx)
	}
	return nil
}

// NumVariables returns the number of variables in the graph.
func (g *Graph) NumVariables() int { return len(g.card) }

// NumFactors returns the number of factors in the graph.
func (g *Graph) NumFactors() int { return len(g.factors) }

// Cardinality returns the domain size of variable v.
func (g *Graph) Cardinality(v int) int { return g.card[v] }

// GibbsConfig controls a sampling run.
type GibbsConfig struct {
	Burnin  int   // sweeps discarded before counting
	Samples int   // counted sweeps
	Seed    int64 // chain seed

	// Workers bounds the goroutines used by the independent-chains
	// fan-out (<= 0 means runtime.GOMAXPROCS(0)). Unless Workers is
	// exactly 1, a graph where no factor couples two latent variables —
	// always true for the fully factorized graphs SLiMFast compiles
	// to — samples each latent variable from its own decorrelated
	// stream (seeded by Seed and the variable index alone). The path
	// choice and the streams depend only on the config, never on the
	// host's core count or scheduling, so the marginals are
	// bit-identical for every Workers != 1 on every machine.
	// Workers == 1 keeps the legacy single-stream sweep chain, which
	// visits variables in order from one generator; graphs with
	// latent-latent couplings also fall back to that chain, whose
	// correctness does not admit independent per-variable sampling.
	Workers int
}

// DefaultGibbsConfig returns settings adequate for the per-object
// posteriors in this repository (chains mix in a handful of sweeps
// because the compiled SLiMFast graph is fully factorized).
func DefaultGibbsConfig() GibbsConfig {
	return GibbsConfig{Burnin: 50, Samples: 200, Seed: 1}
}

// Gibbs runs the sampler and returns per-variable marginal estimates:
// marginals[v][d] ≈ P(X_v = d | evidence). Evidence variables get a
// point mass on their pinned value.
func (g *Graph) Gibbs(cfg GibbsConfig) ([][]float64, error) {
	if cfg.Samples <= 0 {
		return nil, errors.New("factor: Samples must be positive")
	}
	if cfg.Burnin < 0 {
		return nil, errors.New("factor: Burnin must be non-negative")
	}
	// The path choice keys off the configured Workers, not the resolved
	// host parallelism: the same config must sample the same marginals
	// on a 1-core laptop and a 64-core runner.
	if cfg.Workers != 1 && g.latentsIndependent() {
		return g.gibbsIndependent(cfg), nil
	}
	rng := randx.New(cfg.Seed)
	n := len(g.card)
	state := make([]int, n)
	for v := range state {
		if g.evidence[v] >= 0 {
			state[v] = g.evidence[v]
		} else {
			state[v] = rng.Intn(g.card[v])
		}
	}
	counts := make([][]float64, n)
	for v := range counts {
		counts[v] = make([]float64, g.card[v])
	}
	scores := make([]float64, 0, 16)
	scratch := make([]int, 0, 8)
	for sweep := 0; sweep < cfg.Burnin+cfg.Samples; sweep++ {
		for v := 0; v < n; v++ {
			if g.evidence[v] >= 0 {
				continue
			}
			scores = scores[:0]
			for d := 0; d < g.card[v]; d++ {
				state[v] = d
				var s float64
				for _, fi := range g.varFactors[v] {
					f := &g.factors[fi]
					scratch = scratch[:0]
					for _, fv := range f.Vars {
						scratch = append(scratch, state[fv])
					}
					s += f.Weight * f.Potential(scratch)
				}
				scores = append(scores, s)
			}
			probs := mathx.Softmax(scores, nil)
			state[v] = rng.Categorical(probs)
		}
		if sweep >= cfg.Burnin {
			for v := 0; v < n; v++ {
				counts[v][state[v]]++
			}
		}
	}
	total := float64(cfg.Samples)
	for v := range counts {
		if g.evidence[v] >= 0 {
			for d := range counts[v] {
				counts[v][d] = 0
			}
			counts[v][g.evidence[v]] = 1
			continue
		}
		for d := range counts[v] {
			counts[v][d] /= total
		}
	}
	return counts, nil
}

// latentsIndependent reports whether no factor couples two latent
// variables, i.e. the posterior factorizes over variables and each
// latent variable's full conditional is constant across sweeps.
func (g *Graph) latentsIndependent() bool {
	for _, f := range g.factors {
		latent := 0
		for _, v := range f.Vars {
			if g.evidence[v] < 0 {
				latent++
			}
		}
		if latent > 1 {
			return false
		}
	}
	return true
}

// gibbsIndependent samples each latent variable from its own chain.
// With no latent-latent couplings a variable's full conditional never
// changes, so its draws are i.i.d. from one fixed softmax — no mixing
// is needed and Burnin is skipped entirely, leaving Samples categorical
// draws per variable. Each variable draws from a stream derived from
// (Seed, variable index) alone, making the marginals a deterministic
// function of the config — bit-identical for every worker count — while
// the per-object chains fan out over the workers.
func (g *Graph) gibbsIndependent(cfg GibbsConfig) [][]float64 {
	n := len(g.card)
	counts := make([][]float64, n)
	total := float64(cfg.Samples)
	parallel.Do(n, cfg.Workers, func(ch parallel.Chunk) {
		var scores, probs []float64
		var vals []int
		for v := ch.Lo; v < ch.Hi; v++ {
			out := make([]float64, g.card[v])
			counts[v] = out
			if g.evidence[v] >= 0 {
				out[g.evidence[v]] = 1
				continue
			}
			if cap(scores) < g.card[v] {
				scores = make([]float64, g.card[v])
			}
			scores = scores[:g.card[v]]
			for d := range scores {
				scores[d] = 0
				for _, fi := range g.varFactors[v] {
					f := &g.factors[fi]
					if cap(vals) < len(f.Vars) {
						vals = make([]int, len(f.Vars))
					}
					vals = vals[:len(f.Vars)]
					for j, fv := range f.Vars {
						if fv == v {
							vals[j] = d
						} else {
							// Independence guarantees every other
							// variable in the factor is evidence.
							vals[j] = g.evidence[fv]
						}
					}
					scores[d] += f.Weight * f.Potential(vals)
				}
			}
			probs = mathx.Softmax(scores, probs)
			rng := randx.New(randx.Mix(cfg.Seed, int64(v)))
			for s := 0; s < cfg.Samples; s++ {
				out[rng.Categorical(probs)]++
			}
			for d := range out {
				out[d] /= total
			}
		}
	})
	return counts
}

// ExactMarginalsSingleton computes marginals exactly for graphs whose
// factors are all unary (every factor touches exactly one variable).
// Returns an error if any factor has arity > 1; callers fall back to
// Gibbs in that case. This is the fast path for SLiMFast's Equation 4.
func (g *Graph) ExactMarginalsSingleton() ([][]float64, error) {
	for _, f := range g.factors {
		if len(f.Vars) != 1 {
			return nil, errors.New("factor: graph has non-unary factors; use Gibbs")
		}
	}
	out := make([][]float64, len(g.card))
	vals := make([]int, 1)
	for v := range g.card {
		if g.evidence[v] >= 0 {
			p := make([]float64, g.card[v])
			p[g.evidence[v]] = 1
			out[v] = p
			continue
		}
		scores := make([]float64, g.card[v])
		for d := range scores {
			vals[0] = d
			for _, fi := range g.varFactors[v] {
				f := &g.factors[fi]
				scores[d] += f.Weight * f.Potential(vals)
			}
		}
		out[v] = mathx.Softmax(scores, nil)
	}
	return out, nil
}

// IndicatorEquals returns a unary potential that is 1 when the variable
// equals target and 0 otherwise — the building block of SLiMFast's
// compiled model (1[v_{o,s} = d] in Equation 4).
func IndicatorEquals(target int) Potential {
	return func(vals []int) float64 {
		if vals[0] == target {
			return 1
		}
		return 0
	}
}

// IndicatorNotEquals returns a unary potential that is 1 when the
// variable differs from target — used by the copying-source features of
// Appendix D (active when the fused value disagrees with the value two
// copiers agree on).
func IndicatorNotEquals(target int) Potential {
	return func(vals []int) float64 {
		if vals[0] != target {
			return 1
		}
		return 0
	}
}
