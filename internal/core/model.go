// Package core implements SLiMFast (Sections 3–4 of the paper): a
// discriminative data-fusion model that couples cross-source conflicts
// with domain-specific source features, learned either by empirical
// risk minimization (ERM, when ground truth is available) or by
// expectation maximization (EM), with an optimizer that picks between
// the two (Section 4.3).
//
// The model is Equation 4:
//
//	P(To = d | Ω; w) ∝ exp Σ_{(o,s)∈Ω} (w_s + Σ_k w_k f_sk) · 1[v_os = d]
//
// so each source's reliability score σ_s = w_s + Σ_k w_k f_sk doubles as
// the log-odds of its accuracy: A_s = logistic(σ_s) (Equations 2–3).
// The Appendix D copying extension adds pairwise features over source
// pairs that penalize agreement between suspected copiers.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/optim"
	"slimfast/internal/parallel"
)

// Options configures a SLiMFast model.
type Options struct {
	// UseFeatures includes the domain-specific feature weights w_k.
	// Disabling them yields the paper's Sources-ERM / Sources-EM
	// variants, which rely on the per-source indicators only.
	UseFeatures bool

	// CopyFeatures adds Appendix D's pairwise copying features for
	// source pairs that co-observe at least MinCopyOverlap objects.
	CopyFeatures   bool
	MinCopyOverlap int

	// Optim configures the SGD/AdaGrad runs inside ERM and each EM
	// M-step.
	Optim optim.Config

	// EMCalibrate runs a post-EM calibration pass (see Calibrate) that
	// anchors A_s = logistic(σ_s) on posterior-agreement counts, the
	// construction used by the paper's Theorem 3 proof. Without it, σ
	// is only weakly identified once posteriors saturate.
	EMCalibrate bool

	// ERMCalibrate runs the same pass after ERM: the supervised
	// likelihood suffers the same weak identification on dense
	// instances (saturated posteriors accept any weights above a
	// margin), and calibration restores Equation 2's σ_s = logit(A_s)
	// reading that the paper's Table 3 errors reflect.
	ERMCalibrate bool

	// Workers bounds the goroutines used by the parallel execution
	// subsystem for the EM E-step, inference and calibration counting.
	// 0 means runtime.GOMAXPROCS(0); 1 runs everything on the calling
	// goroutine. Workers picks speed, never the algorithm: weights,
	// fused values, posteriors and accuracies are bit-identical for
	// every value. Each object, example or source owns its output
	// slot, and SGD runs sequentially.
	Workers int
}

// DefaultOptions returns the configuration used across the experiment
// suite.
func DefaultOptions() Options {
	oc := optim.DefaultConfig()
	oc.L2 = 1e-3 // keep separable instances finite
	return Options{
		UseFeatures:    true,
		MinCopyOverlap: 3,
		Optim:          oc,
		EMCalibrate:    true,
		ERMCalibrate:   true,
	}
}

const (
	// emMaxIters bounds the number of EM rounds; EM stops early when
	// the maximum weight change between rounds drops below
	// emTolerance.
	emMaxIters  = 25
	emTolerance = 1e-3

	// emInitAccuracy seeds the per-source weights with
	// logit(emInitAccuracy) when EM starts from all-zero weights.
	// All-zero weights are a fixed point of EM (uniform posteriors
	// produce zero gradients), so the first E-step must be anchored;
	// this makes it a weighted majority vote, the standard
	// initialization in the truth-discovery literature.
	emInitAccuracy = 0.8
)

// Model is a compiled SLiMFast instance over one dataset. Construct
// with Compile; learn with FitERM or FitEM; read results with Infer,
// SourceAccuracies and the Weights accessors.
type Model struct {
	ds   *data.Dataset
	opts Options

	// w holds all weights: per-source w_s at [0, |S|), per-feature w_k
	// at [|S|, |S|+|K|), copy-pair weights after that.
	w []float64

	numSources  int
	numFeatures int

	// copyPairs lists the source pairs with pairwise copy features;
	// copyAgree[p] lists, for each pair, the (object, value) agreements
	// it has, precomputed at compile time.
	copyPairs []copyPair
	// objCopyAgree[o] lists agreements relevant to object o: which copy
	// pair agreed and on which value.
	objCopyAgree [][]copyAgreement

	// lay is the compiled hot-path layout (CSR observations with local
	// domain indices, dense-slab offsets, feature index); see
	// compiled.go.
	lay layout

	// plan is the compiled per-object gradient plan and the per-source
	// feature-coordinate list σ reads; see gradPlan in compiled.go.
	plan gradPlan

	// sigma caches the per-source reliability scores at the current
	// weights; sigmaValid tracks the invalidate-on-weight-change
	// contract documented on sigmaTable.
	sigma      []float64
	sigmaValid bool
	sigmaMu    sync.Mutex

	// scratchPool recycles the per-worker hot-loop buffers.
	scratchPool sync.Pool
}

type copyPair struct {
	a, b data.SourceID
}

type copyAgreement struct {
	pair  int // index into copyPairs
	value data.ValueID
}

// Compile builds a Model over the dataset. It precomputes the copy-pair
// structure when Options.CopyFeatures is set, the hot-path layout and
// the SGD step's gradient plan; it fails when the dataset is too large
// for the plan's int32 indices.
func Compile(ds *data.Dataset, opts Options) (*Model, error) {
	if ds == nil {
		return nil, errors.New("core: nil dataset")
	}
	if err := opts.Optim.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Model{
		ds:          ds,
		opts:        opts,
		numSources:  ds.NumSources(),
		numFeatures: ds.NumFeatures(),
	}
	if opts.CopyFeatures {
		m.buildCopyPairs()
	}
	m.w = make([]float64, m.numSources+m.numFeatures+len(m.copyPairs))
	m.sigma = make([]float64, m.numSources)
	m.buildLayout()
	if err := m.buildPlan(); err != nil {
		return nil, err
	}
	return m, nil
}

// featBase returns the index of the first feature weight.
func (m *Model) featBase() int { return m.numSources }

// buildCopyPairs finds source pairs co-observing at least
// MinCopyOverlap objects and records their per-object agreements. Pair
// keys are canonicalized to (min, max) so the compiled copy features do
// not depend on the order observations happened to be recorded in.
func (m *Model) buildCopyPairs() {
	type pairKey struct{ a, b data.SourceID }
	overlap := map[pairKey]int{}
	type agreeRec struct {
		o data.ObjectID
		v data.ValueID
	}
	agreeByPair := map[pairKey][]agreeRec{}
	for o := 0; o < m.ds.NumObjects(); o++ {
		obs := m.ds.ObjectObservations(data.ObjectID(o))
		for i := 0; i < len(obs); i++ {
			for j := i + 1; j < len(obs); j++ {
				k := pairKey{obs[i].Source, obs[j].Source}
				if k.a > k.b {
					k.a, k.b = k.b, k.a
				}
				overlap[k]++
				if obs[i].Value == obs[j].Value {
					agreeByPair[k] = append(agreeByPair[k], agreeRec{data.ObjectID(o), obs[i].Value})
				}
			}
		}
	}
	m.objCopyAgree = make([][]copyAgreement, m.ds.NumObjects())
	// Deterministic pair order: sort keys before assigning indices so
	// learned weights are reproducible across runs.
	keys := make([]pairKey, 0, len(overlap))
	for k := range overlap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		if overlap[k] < m.opts.MinCopyOverlap {
			continue
		}
		idx := len(m.copyPairs)
		m.copyPairs = append(m.copyPairs, copyPair{k.a, k.b})
		for _, ar := range agreeByPair[k] {
			m.objCopyAgree[ar.o] = append(m.objCopyAgree[ar.o], copyAgreement{pair: idx, value: ar.v})
		}
	}
}

// NumCopyPairs returns how many pairwise copying features were
// compiled.
func (m *Model) NumCopyPairs() int { return len(m.copyPairs) }

// CopyPair returns the source pair and learned weight of copy feature
// p. Large positive weights mark suspected copiers (their agreement is
// discounted during fusion), matching Figure 8's reading.
func (m *Model) CopyPair(p int) (a, b data.SourceID, weight float64) {
	cp := m.copyPairs[p]
	return cp.a, cp.b, m.w[m.featBase()+m.numFeatures+p]
}

// FeatureWeight returns w_k for feature k.
func (m *Model) FeatureWeight(k data.FeatureID) float64 {
	return m.w[m.featBase()+int(k)]
}

// Sigma returns the reliability score σ_s = w_s + Σ_k w_k f_sk of
// source s under the current weights.
func (m *Model) Sigma(s data.SourceID) float64 { return m.sigmaAt(m.w, s) }

// SourceAccuracies returns A_s = logistic(σ_s) for every source
// (Equation 3).
func (m *Model) SourceAccuracies() []float64 {
	acc := make([]float64, m.numSources)
	for s := range acc {
		acc[s] = mathx.Logistic(m.Sigma(data.SourceID(s)))
	}
	return acc
}

// PredictAccuracy estimates the accuracy of a source never seen during
// training, from its feature labels alone (Section 5.3.2, Figure 7):
// the mean learned per-source weight serves as an intercept alongside
// the feature weights. Labels absent from the training feature
// vocabulary are ignored.
func (m *Model) PredictAccuracy(featureLabels []string) float64 {
	idx := m.lay.featIdx
	var sigma float64
	if m.numSources > 0 {
		var sum float64
		for s := 0; s < m.numSources; s++ {
			sum += m.w[s]
		}
		sigma += sum / float64(m.numSources)
	}
	if m.opts.UseFeatures {
		for _, lbl := range featureLabels {
			if k, ok := idx[lbl]; ok {
				sigma += m.w[m.featBase()+int(k)]
			}
		}
	}
	return mathx.Logistic(sigma)
}

// objectScores computes the unnormalized log-posterior scores for every
// value in the compiled domain of object o (Equation 4 plus copy
// features), writing into buf and returning it alongside the domain.
// sg is the σ-table for the weights being scored (sigmaTable for the
// model's own weights). The compiled layout supplies each observation's
// local domain index, so the loop is pure indexed arithmetic — no
// per-call maps or domain copies.
func (m *Model) objectScores(o data.ObjectID, sg []float64, buf []float64) ([]float64, []data.ValueID) {
	dom := m.ds.Domain(o)
	n := len(dom)
	if n == 0 {
		return buf[:0], nil
	}
	buf = growFloats(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	base := m.lay.obsBase[o]
	for i, ob := range m.ds.ObjectObservations(o) {
		buf[m.lay.obsLocal[base+i]] += sg[ob.Source]
	}
	if m.opts.CopyFeatures {
		for _, ag := range m.objCopyAgree[o] {
			wp := m.w[m.featBase()+m.numFeatures+ag.pair]
			// Appendix D: the feature is active when the fused value
			// differs from what the agreeing pair reported, so every
			// value except the agreed one gets +wp.
			for i, v := range dom {
				if v != ag.value {
					buf[i] += wp
				}
			}
		}
	}
	return buf, dom
}

// Result is the output of data fusion: MAP values and posteriors per
// object, plus the estimated source accuracies.
//
// Posteriors are held densely (one slab indexed by the compiled layout)
// and materialized into maps lazily: Posterior and Posteriors return
// ordinary map[data.ValueID]float64 views, but a caller that only reads
// Values never pays for per-object map construction. The slab is a
// snapshot taken at inference time, so the views stay valid if the
// model's weights change afterwards.
type Result struct {
	Values           map[data.ObjectID]data.ValueID
	SourceAccuracies []float64
	// Algorithm records which learner produced the weights
	// ("erm", "em", or "none" for an unfitted model).
	Algorithm string

	// dense is the slab-backed posterior snapshot; ds and lay are the
	// owning model's dataset and compiled layout, needed to decode the
	// slab.
	dense *denseResult
	ds    *data.Dataset
	lay   *layout

	mu         sync.Mutex
	posteriors map[data.ObjectID]map[data.ValueID]float64
	allBuilt   bool
}

// Posterior returns P(To = d | Ω) for object o as a map over its
// domain, or nil when the object has no posterior. The map is built on
// first access and cached; repeated calls return the same map.
func (r *Result) Posterior(o data.ObjectID) map[data.ValueID]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if post, ok := r.posteriors[o]; ok {
		return post
	}
	if r.allBuilt || int(o) < 0 || int(o) >= len(r.dense.state) {
		return nil
	}
	post := r.materialize(o)
	if post != nil {
		if r.posteriors == nil {
			r.posteriors = make(map[data.ObjectID]map[data.ValueID]float64)
		}
		r.posteriors[o] = post
	}
	return post
}

// Posteriors returns the full per-object posterior view, materializing
// any maps not yet built. Callers that need only a few objects should
// prefer Posterior.
func (r *Result) Posteriors() map[data.ObjectID]map[data.ValueID]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.allBuilt {
		return r.posteriors
	}
	if r.posteriors == nil {
		r.posteriors = make(map[data.ObjectID]map[data.ValueID]float64, len(r.dense.state))
	}
	for o := range r.dense.state {
		oid := data.ObjectID(o)
		if _, ok := r.posteriors[oid]; ok {
			continue
		}
		if post := r.materialize(oid); post != nil {
			r.posteriors[oid] = post
		}
	}
	r.allBuilt = true
	return r.posteriors
}

// materialize builds object o's posterior map from the dense snapshot;
// callers hold r.mu.
func (r *Result) materialize(o data.ObjectID) map[data.ValueID]float64 {
	switch r.dense.state[o] {
	case objKnown:
		return map[data.ValueID]float64{r.dense.best[o]: 1}
	case objComputed:
		dom := r.ds.Domain(o)
		seg := r.dense.probs[r.lay.scoreStart[o]:r.lay.scoreStart[o+1]]
		post := make(map[data.ValueID]float64, len(dom))
		for i, v := range dom {
			post[v] = seg[i]
		}
		return post
	}
	return nil
}

// Infer computes the exact Equation 4 posterior of every object under
// the current weights (the model factorizes over objects, so each is
// one closed-form softmax). Known labels (may be nil) are clamped as
// evidence: their value is returned verbatim, matching the paper's
// semi-supervised treatment. The error is always nil.
func (m *Model) Infer(known data.TruthMap) (*Result, error) {
	nObj := m.ds.NumObjects()
	dr := m.inferDense(known)
	res := &Result{
		Values:           make(map[data.ObjectID]data.ValueID, nObj),
		SourceAccuracies: m.SourceAccuracies(),
		dense:            dr,
		ds:               m.ds,
		lay:              &m.lay,
	}
	for o := 0; o < nObj; o++ {
		if dr.state[o] != objEmpty {
			res.Values[data.ObjectID(o)] = dr.best[o]
		}
	}
	return res, nil
}

// Dense-path object states; see denseResult.
const (
	objEmpty    uint8 = iota // no observations and no label: no output
	objComputed              // posterior computed into the slab
	objKnown                 // label clamped: point mass on best
)

// denseResult is the allocation-light internal form of exact inference:
// object o's posterior over ds.Domain(o) occupies
// probs[lay.scoreStart[o]:lay.scoreStart[o+1]] in one shared slab, and
// best holds its MAP value. Internal consumers (the EM E-step feed and
// Calibrate's agreement counting) read the slab directly through the
// compiled observation indices; only the public Result API materializes
// maps.
type denseResult struct {
	probs []float64
	state []uint8
	best  []data.ValueID
}

// inferDense computes exact posteriors for every object into a dense
// slab. Per-object scores are written straight into each object's
// index-owned slab segment and softmaxed in place, so the scoring loop
// performs no per-object allocation and the result is bit-identical for
// any worker count.
func (m *Model) inferDense(known data.TruthMap) *denseResult {
	nObj := m.ds.NumObjects()
	sg := m.sigmaTable()
	dr := &denseResult{
		probs: make([]float64, m.lay.scoreStart[nObj]),
		state: make([]uint8, nObj),
		best:  make([]data.ValueID, nObj),
	}
	parallel.Do(nObj, m.workers(), func(ch parallel.Chunk) {
		for o := ch.Lo; o < ch.Hi; o++ {
			oid := data.ObjectID(o)
			if v, ok := known[oid]; ok {
				dr.state[o] = objKnown
				dr.best[o] = v
				continue
			}
			seg := dr.probs[m.lay.scoreStart[o]:m.lay.scoreStart[o+1]]
			scores, dom := m.objectScores(oid, sg, seg)
			if len(dom) == 0 {
				continue
			}
			probs := mathx.Softmax(scores, scores)
			best, bestP := dom[0], probs[0]
			for i, v := range dom {
				if probs[i] > bestP {
					best, bestP = v, probs[i]
				}
			}
			dr.state[o] = objComputed
			dr.best[o] = best
		}
	})
	return dr
}

// workers resolves the effective worker count for the parallel paths.
func (m *Model) workers() int { return parallel.Resolve(m.opts.Workers) }
