package core

import (
	"errors"
	"slices"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/optim"
	"slimfast/internal/parallel"
)

// FitERM learns the model weights by empirical risk minimization over
// the ground truth G (Section 3.2): it maximizes the likelihood of the
// labeled object values, a convex objective solved with SGD. It returns
// the optimizer's run statistics.
//
// Labeled objects without observations carry no gradient and are
// skipped.
func (m *Model) FitERM(train data.TruthMap) (optim.Result, error) {
	examples := m.labeledExamples(train)
	if len(examples) == 0 {
		return optim.Result{}, errors.New("core: FitERM requires ground truth on observed objects")
	}
	sc := &scratch{}
	grad := func(i int, w []float64, g *optim.Sparse) {
		ex := examples[i]
		m.accumGradient(w, g, ex.object, ex.truth, nil, sc)
	}
	res, err := optim.Minimize(len(examples), m.w, grad, m.opts.Optim)
	m.invalidateSigma()
	if err != nil {
		return res, err
	}
	if m.opts.ERMCalibrate {
		if err := m.CalibrateSupervised(train); err != nil {
			return res, err
		}
	}
	return res, nil
}

// EMStats reports what an EM run did.
type EMStats struct {
	Iterations int
	Converged  bool
	LastDelta  float64 // max weight change in the final iteration
}

// FitEM learns the weights by expectation maximization (Section 3.2).
// Labeled objects in train (may be empty) act as evidence, making the
// run semi-supervised; a label trainableLabel rejects (one outside the
// object's domain) leaves its object unlabeled. Each round alternates:
//
//	E-step: q_o(d) = P(To=d | Ω; w) for unlabeled objects
//	        (labeled objects have q_o = point mass on the label),
//	M-step: SGD on the expected negative log-likelihood under q.
//
// EM stops when the max weight change drops below EMTolerance or after
// EMMaxIters rounds.
func (m *Model) FitEM(train data.TruthMap) (EMStats, error) {
	type emExample struct {
		object  data.ObjectID
		truth   data.ValueID
		labeled bool // truth is a trainable label (see trainableLabel)
	}
	var examples []emExample
	for o := 0; o < m.ds.NumObjects(); o++ {
		oid := data.ObjectID(o)
		if len(m.ds.Domain(oid)) == 0 {
			continue
		}
		truth, ok := train[oid]
		examples = append(examples, emExample{oid, truth, ok && m.trainableLabel(oid, truth)})
	}
	if len(examples) == 0 {
		return EMStats{}, errors.New("core: FitEM requires at least one observed object")
	}

	// Break the symmetric fixed point: from all-zero weights the
	// E-step is uniform and the M-step gradient vanishes. Seed the
	// source weights with a prior accuracy so round one is a weighted
	// majority vote.
	allZero := true
	for _, x := range m.w {
		if x != 0 {
			allZero = false
			break
		}
	}
	if allZero && m.opts.EMInitAccuracy > 0 {
		init := mathx.Logit(m.opts.EMInitAccuracy)
		for i := 0; i < m.numSources*m.numClasses; i++ {
			m.w[i] = init
		}
		m.invalidateSigma()
	}

	// q[i] is the E-step posterior over examples[i].object's domain;
	// the slices are allocated once and rewritten in place every round.
	q := make([][]float64, len(examples))
	prevW := make([]float64, len(m.w))
	var stats EMStats
	mcfg := m.opts.Optim
	// A few SGD epochs per M-step; full convergence per round is
	// wasted work since q moves again immediately.
	if mcfg.Epochs > 10 {
		mcfg.Epochs = 10
	}
	gsc := &scratch{} // the M-step's; the E-step takes pooled ones
	workers := m.workers()
	for iter := 0; iter < m.opts.EMMaxIters; iter++ {
		// E-step: each example's posterior lands in its own q slot, so
		// the scoring fans out over workers with bit-identical results
		// for any worker count. The σ-table is frozen for the whole
		// step.
		esg := m.sigmaTable()
		parallel.Do(len(examples), workers, func(ch parallel.Chunk) {
			sc := m.getScratch()
			for i := ch.Lo; i < ch.Hi; i++ {
				ex := examples[i]
				if ex.labeled {
					// Labeled: point mass on the label; no scoring.
					dom := m.lay.dom[ex.object]
					p := growFloats(q[i], len(dom))
					for j, v := range dom {
						p[j] = 0
						if v == ex.truth {
							p[j] = 1
						}
					}
					q[i] = p
					continue
				}
				scores, _ := m.objectScores(ex.object, esg, sc.scores)
				sc.scores = scores
				q[i] = mathx.Softmax(scores, q[i])
			}
			m.putScratch(sc)
		})
		// M-step.
		copy(prevW, m.w)
		mcfg.Seed = m.opts.Optim.Seed + int64(iter) + 1
		grad := func(i int, w []float64, g *optim.Sparse) {
			m.accumGradient(w, g, examples[i].object, data.None, q[i], gsc)
		}
		_, err := optim.Minimize(len(examples), m.w, grad, mcfg)
		m.invalidateSigma()
		if err != nil {
			return stats, err
		}
		stats.Iterations = iter + 1
		stats.LastDelta = mathx.MaxAbsDiff(m.w, prevW)
		if stats.LastDelta < m.opts.EMTolerance {
			stats.Converged = true
			break
		}
	}
	if m.opts.EMCalibrate {
		if err := m.Calibrate(train); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

type labeledExample struct {
	object data.ObjectID
	truth  data.ValueID
}

// labeledExamples returns the training examples ERM can use: labeled
// objects with at least one observation whose label is trainable.
func (m *Model) labeledExamples(train data.TruthMap) []labeledExample {
	var out []labeledExample
	for o := 0; o < m.ds.NumObjects(); o++ {
		oid := data.ObjectID(o)
		truth, ok := train[oid]
		if ok && m.trainableLabel(oid, truth) {
			out = append(out, labeledExample{oid, truth})
		}
	}
	return out
}

// trainableLabel reports whether truth is a label the learners can fit
// on object o: a value in its observed domain (the single-truth
// assumption guarantees this for real data; labels outside the domain
// are unlearnable, and ERM skips them while EM treats the object as
// unlabeled). Under open-world semantics a data.None label ("the truth
// was never reported") is trainable too: it targets the wildcard
// coordinate. Objects without observations have no trainable label.
func (m *Model) trainableLabel(o data.ObjectID, truth data.ValueID) bool {
	dom := m.ds.Domain(o)
	if len(dom) == 0 {
		return false
	}
	if m.opts.OpenWorld && truth == data.None {
		return true
	}
	for _, v := range dom {
		if v == truth {
			return true
		}
	}
	return false
}

// accumGradient adds one object's gradient contribution to g. q selects
// the residual: when non-nil it is the E-step posterior over the
// object's compiled domain and r = probs − q (EM's expected loss);
// otherwise r = probs − 1[v = truth] (ERM's supervised loss, where
// truth may be data.None under open-world semantics to target the
// wildcard). The chain rule routes each value residual to the weights
// that feed that value's score: observation (o,s) with value v adds r_v
// to w_s and to every active feature weight of s; a copy agreement on
// value u adds Σ_{d≠u} r_d to the pair weight.
//
// The compiled gradient plan (see gradPlan) drives the chain rule: each
// claim's residual is scattered through its position and slots into a
// dense per-object buffer in claim order, and the object's coordinates
// go to g in one AddAll. A claim whose residual is exactly 0 contributes
// nothing, so a coordinate only such claims reach is left out of g
// entirely (lazy L2 and L1 must not touch it); copy-pair coordinates
// are always handed over.
//
// σ is recomputed from w at every step — w aliases m.w during
// optimization, and the per-step recomputation honours the optimizer's
// live view of the weights. All buffers come from sc, so the steady
// state allocates nothing.
func (m *Model) accumGradient(w []float64, g *optim.Sparse, o data.ObjectID, truth data.ValueID, q []float64, sc *scratch) {
	dom := m.lay.dom[o]
	n := len(dom)
	if n == 0 {
		return
	}
	fb := m.featBase()
	scores := growFloats(sc.scores, n)
	sc.scores = scores
	for i := range scores {
		scores[i] = 0
	}
	if m.opts.OpenWorld {
		scores[n-1] = m.opts.OpenWorldBias
	}
	obs := m.ds.ObjectObservations(o)
	base := m.lay.obsBase[o]
	classBase := m.classOfObject(o) * m.numSources
	for i, ob := range obs {
		scores[m.lay.obsLocal[base+i]] += m.sigmaAt(w, classBase+int(ob.Source), ob.Source)
	}
	agrees := m.copyAgreements(int(o))
	for _, ag := range agrees {
		wp := w[fb+m.numFeatures+ag.pair]
		for i, v := range dom {
			if v != ag.value {
				scores[i] += wp
			}
		}
	}
	probs := mathx.Softmax(scores, sc.probs)
	sc.probs = probs
	r := growFloats(sc.resid, n)
	sc.resid = r
	if q != nil {
		for j := range dom {
			r[j] = probs[j] - q[j]
		}
	} else {
		for j, v := range dom {
			r[j] = probs[j]
			if v == truth {
				r[j] -= 1
			}
		}
	}
	if len(agrees) == 0 && !slices.ContainsFunc(r, func(x float64) bool { return x != 0 }) {
		// A saturated object: no claim has a residual, so nothing is
		// touched.
		return
	}

	p := &m.plan
	coords := p.coord[p.coordStart[o]:p.coordStart[o+1]]
	slots := p.slot[p.slotStart[o]:p.slotStart[o+1]]
	if cap(sc.grad) < len(coords) {
		sc.grad = make([]float64, p.maxCoord)
	}
	vals := sc.grad[:len(coords)]
	clear(vals)
	skipped := false
	at := 0
	for i, ob := range obs {
		next := at + p.numFeat(ob.Source)
		if rv := r[m.lay.obsLocal[base+i]]; rv != 0 {
			vals[i] = rv
			for _, sl := range slots[at:next] {
				vals[sl] += rv
			}
		} else {
			skipped = true
		}
		at = next
	}
	first := len(coords) - len(agrees)
	for a, ag := range agrees {
		var sum float64
		for i, v := range dom {
			if v != ag.value {
				sum += r[i]
			}
		}
		vals[first+a] = sum
	}
	if skipped {
		coords, vals = m.touchedCoords(o, r, coords, vals, first, sc)
	}
	g.AddAll(coords, vals)
}

// touchedCoords narrows object o's gradient, when some claim's residual
// is exactly 0, to the coordinates the per-claim Add walk would touch:
// those a claim with a nonzero residual reaches, plus the copy-pair
// coordinates from index first on. vals is compacted in place; the
// coordinates land in sc.coord.
func (m *Model) touchedCoords(o data.ObjectID, r []float64, coords []int32, vals []float64, first int, sc *scratch) ([]int32, []float64) {
	p := &m.plan
	slots := p.slot[p.slotStart[o]:p.slotStart[o+1]]
	if cap(sc.hit) < len(coords) {
		sc.hit = make([]bool, p.maxCoord)
		sc.coord = make([]int32, 0, p.maxCoord)
	}
	hit := sc.hit[:len(coords)]
	clear(hit)
	for j := first; j < len(coords); j++ {
		hit[j] = true
	}
	base := m.lay.obsBase[o]
	at := 0
	for i, ob := range m.ds.ObjectObservations(o) {
		next := at + p.numFeat(ob.Source)
		if r[m.lay.obsLocal[base+i]] != 0 {
			hit[i] = true
			for _, sl := range slots[at:next] {
				hit[sl] = true
			}
		}
		at = next
	}
	out := sc.coord[:0]
	for j, c := range coords {
		if hit[j] {
			vals[len(out)] = vals[j]
			out = append(out, c)
		}
	}
	sc.coord = out
	return out, vals[:len(out)]
}

// Fuse is the one-call API: fits with the requested algorithm and runs
// inference. algorithm must be AlgorithmERM or AlgorithmEM.
func (m *Model) Fuse(algorithm Algorithm, train data.TruthMap) (*Result, error) {
	switch algorithm {
	case AlgorithmERM:
		if _, err := m.FitERM(train); err != nil {
			return nil, err
		}
	case AlgorithmEM:
		if _, err := m.FitEM(train); err != nil {
			return nil, err
		}
	default:
		return nil, errors.New("core: unknown algorithm")
	}
	res, err := m.Infer(train)
	if err != nil {
		return nil, err
	}
	res.Algorithm = algorithm.String()
	return res, nil
}
