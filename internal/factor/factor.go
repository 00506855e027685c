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
// Equation 4, and the copying-source features of Appendix D compile to
// unary IndicatorNotEquals potentials, so every graph SLiMFast builds
// is fully factorized. A factor may also join a latent variable to
// evidence; Gibbs rejects a factor over two latent variables.
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
	Samples int   // draws per latent variable
	Seed    int64 // chain seed
}

// DefaultGibbsConfig returns settings adequate for the per-object
// posteriors in this repository.
func DefaultGibbsConfig() GibbsConfig {
	return GibbsConfig{Samples: 200, Seed: 1}
}

// Gibbs runs the sampler and returns per-variable marginal estimates:
// marginals[v][d] ≈ P(X_v = d | evidence). Evidence variables get a
// point mass on their pinned value.
//
// The graph must not couple two latent variables (a factor may join
// one latent variable to any evidence), so the posterior factorizes
// and each latent variable's full conditional is one fixed softmax: its
// draws are i.i.d. and need no burn-in. Each variable draws Samples
// times from a stream seeded by (Seed, variable index) alone, so the
// marginals are a deterministic function of the config, bit-identical
// for every workers value; workers (<= 0 means runtime.GOMAXPROCS(0))
// only spreads the variables over goroutines.
func (g *Graph) Gibbs(cfg GibbsConfig, workers int) ([][]float64, error) {
	if cfg.Samples <= 0 {
		return nil, errors.New("factor: Samples must be positive")
	}
	for _, f := range g.factors {
		latent := 0
		for _, v := range f.Vars {
			if g.evidence[v] < 0 {
				latent++
			}
		}
		if latent > 1 {
			return nil, errors.New("factor: a factor couples two latent variables; Gibbs samples factorized graphs only")
		}
	}
	n := len(g.card)
	counts := make([][]float64, n)
	total := float64(cfg.Samples)
	parallel.Do(n, workers, func(ch parallel.Chunk) {
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
							// Every other variable in the factor is
							// evidence (checked above).
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
	return counts, nil
}

// ExactMarginalsSingleton computes marginals exactly for graphs whose
// factors are all unary (every factor touches exactly one variable).
// Returns an error if any factor has arity > 1. This is the fast path
// for SLiMFast's Equation 4.
func (g *Graph) ExactMarginalsSingleton() ([][]float64, error) {
	for _, f := range g.factors {
		if len(f.Vars) != 1 {
			return nil, errors.New("factor: graph has non-unary factors")
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
