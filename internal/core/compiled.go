package core

import (
	"errors"
	"fmt"
	"math"

	"slimfast/internal/data"
)

// layout is the compiled hot-path representation of the dataset, built
// once in Compile. It flattens the per-object observation structure
// into a CSR-style form so the inner loops of scoring, gradient
// accumulation and inference index straight into slices instead of
// rebuilding a map[ValueID]int position index per call:
//
//   - observation i of object o lives at global index obsBase[o]+i in
//     ds.Observations, and obsLocal[obsBase[o]+i] is the local index of
//     its value inside dom[o];
//   - dom[o] is the object's scoring domain with the open-world
//     wildcard (data.None) already appended when Options.OpenWorld is
//     set, so the hot loops never copy or extend domains;
//   - scoreStart offsets a single dense slab: object o's score/
//     posterior vector occupies [scoreStart[o], scoreStart[o+1]) —
//     the dense posterior path (inferDense) writes there instead of
//     allocating one map per object per round;
//   - featIdx is PredictAccuracy's feature-name index, hoisted out of
//     the per-call path.
type layout struct {
	obsBase    []int
	obsLocal   []int32
	dom        [][]data.ValueID
	scoreStart []int
	featIdx    map[string]data.FeatureID
}

// localIndex returns the position of v in dom, or -1 when absent. Only
// used at compile time and on cold paths; the hot loops read the
// precomputed obsLocal instead.
func localIndex(dom []data.ValueID, v data.ValueID) int {
	for i, d := range dom {
		if d == v {
			return i
		}
	}
	return -1
}

// buildLayout compiles the CSR observation layout, the (open-world
// extended) domains, the dense-slab offsets and the feature-name index.
func (m *Model) buildLayout() {
	ds := m.ds
	nObj := ds.NumObjects()
	m.lay.obsBase = make([]int, nObj)
	m.lay.obsLocal = make([]int32, ds.NumObservations())
	m.lay.dom = make([][]data.ValueID, nObj)
	m.lay.scoreStart = make([]int, nObj+1)
	base := 0
	for o := 0; o < nObj; o++ {
		oid := data.ObjectID(o)
		obs := ds.ObjectObservations(oid)
		m.lay.obsBase[o] = base
		dom := ds.Domain(oid)
		if m.opts.OpenWorld && len(dom) > 0 {
			ext := make([]data.ValueID, len(dom)+1)
			copy(ext, dom)
			ext[len(dom)] = data.None
			dom = ext
		}
		m.lay.dom[o] = dom
		m.lay.scoreStart[o+1] = m.lay.scoreStart[o] + len(dom)
		for i, ob := range obs {
			m.lay.obsLocal[base+i] = int32(localIndex(dom, ob.Value))
		}
		base += len(obs)
	}
	m.lay.featIdx = make(map[string]data.FeatureID, ds.NumFeatures())
	for i, n := range ds.FeatureNames {
		m.lay.featIdx[n] = data.FeatureID(i)
	}
}

// gradPlan is the compiled form of the SGD step's chain rule, built
// once in Compile next to the layout, in int32 CSR form:
//
//   - feat[featStart[s]:featStart[s+1]] lists source s's feature-weight
//     coordinates (featBase()+k, in SourceFeatures order); every range
//     is empty when Options.UseFeatures is off. σ reads the same list
//     through sigmaAt, so the sequential step, the σ-table and
//     SigmaClass share one definition of σ;
//   - coord[coordStart[o]:coordStart[o+1]] lists object o's distinct
//     gradient coordinates: claim i's source weight at position i (a
//     source claims an object at most once), then the claims' feature
//     weights in the order a claim-order walk first reaches them, then
//     one copy-pair weight per copy agreement (objCopyAgree[o] order);
//   - slot[slotStart[o]:slotStart[o+1]] holds, claim by claim, the
//     positions in that list of the claim's feature weights (numFeat
//     entries per claim).
//
// accumGradient scatters each claim's residual through its position
// and slots into a dense per-object buffer, so each coordinate's sum
// keeps claim order, and hands the coordinate list and the buffer to
// the optimizer in one call.
type gradPlan struct {
	featStart  []int32
	feat       []int32
	coordStart []int32
	coord      []int32
	slotStart  []int32
	slot       []int32
	// maxCoord is the longest coordinate list, which sizes the
	// per-object gradient buffers once.
	maxCoord int
}

// numFeat returns how many feature weights a claim by source s reaches.
func (p *gradPlan) numFeat(s data.SourceID) int {
	return int(p.featStart[s+1] - p.featStart[s])
}

// buildPlan compiles the gradient plan into two slabs allocated once:
// the per-source part and the per-object part. The per-object slab is
// sized before it is filled: each claim's slot count is known up front,
// and an object's distinct coordinates number at most its claims plus
// its slots (and the feature count) plus its copy agreements, so one
// fill pass deduplicates each object's feature coordinates with a
// per-feature stamp array instead of a map and leaves any unused bound
// at the slab's tail.
func (m *Model) buildPlan() error {
	ds := m.ds
	nObj := ds.NumObjects()
	nW := len(m.w)
	if nW >= math.MaxInt32 {
		return fmt.Errorf("core: %d weights exceed the int32 gradient plan", nW)
	}
	fb := m.featBase()
	nFeat := 0
	if m.opts.UseFeatures {
		for _, fs := range ds.SourceFeatures {
			nFeat += len(fs)
		}
	}
	// The per-source slab also carries the build's scratch: stamp[k]
	// == o+1 marks feature k as listed for object o, at position at[k]
	// of its list.
	src := make([]int32, m.numSources+1+nFeat+2*m.numFeatures)
	p := &m.plan
	p.featStart, src = src[:m.numSources+1], src[m.numSources+1:]
	p.feat, src = src[:nFeat:nFeat], src[nFeat:]
	stamp, at := src[:m.numFeatures], src[m.numFeatures:]
	n := 0
	for s := 0; s < m.numSources; s++ {
		if m.opts.UseFeatures {
			for _, k := range ds.SourceFeatures[s] {
				p.feat[n] = int32(fb + int(k))
				n++
			}
		}
		p.featStart[s+1] = int32(n)
	}

	nSlot, bound := 0, 0
	for o := 0; o < nObj; o++ {
		obs := ds.ObjectObservations(data.ObjectID(o))
		slots := 0
		for _, ob := range obs {
			slots += p.numFeat(ob.Source)
		}
		nSlot += slots
		bound += len(obs) + min(slots, m.numFeatures) + len(m.copyAgreements(o))
	}
	if nSlot+bound >= math.MaxInt32 {
		return errors.New("core: dataset too large for the int32 gradient plan")
	}
	obj := make([]int32, 2*(nObj+1)+nSlot+bound)
	p.coordStart, obj = obj[:nObj+1], obj[nObj+1:]
	p.slotStart, obj = obj[:nObj+1], obj[nObj+1:]
	p.slot, obj = obj[:nSlot], obj[nSlot:]
	nCoord, nSlot := 0, 0
	for o := 0; o < nObj; o++ {
		c, sl := m.fillObject(o, stamp, at, obj[nCoord:], p.slot[nSlot:])
		nCoord += c
		nSlot += sl
		p.maxCoord = max(p.maxCoord, c)
		p.coordStart[o+1] = int32(nCoord)
		p.slotStart[o+1] = int32(nSlot)
	}
	p.coord = obj[:nCoord:nCoord]
	return nil
}

// fillObject writes object o's coordinate list and feature slots (see
// gradPlan) into coord and slot and returns how many of each it wrote.
// stamp and at, indexed by feature, deduplicate the feature
// coordinates.
func (m *Model) fillObject(o int, stamp, at, coord, slot []int32) (nCoord, nSlot int) {
	p := &m.plan
	tag := int32(o + 1)
	fb := int32(m.featBase())
	classBase := int32(m.classOfObject(data.ObjectID(o)) * m.numSources)
	obs := m.ds.ObjectObservations(data.ObjectID(o))
	for _, ob := range obs {
		coord[nCoord] = classBase + int32(ob.Source)
		nCoord++
	}
	for _, ob := range obs {
		for _, c := range p.feat[p.featStart[ob.Source]:p.featStart[ob.Source+1]] {
			k := c - fb
			if stamp[k] != tag {
				stamp[k] = tag
				at[k] = int32(nCoord)
				coord[nCoord] = c
				nCoord++
			}
			slot[nSlot] = at[k]
			nSlot++
		}
	}
	for _, ag := range m.copyAgreements(o) {
		coord[nCoord] = fb + int32(m.numFeatures+ag.pair)
		nCoord++
	}
	return nCoord, nSlot
}

// copyAgreements returns object o's copy agreements, none when copy
// features are off.
func (m *Model) copyAgreements(o int) []copyAgreement {
	if !m.opts.CopyFeatures {
		return nil
	}
	return m.objCopyAgree[o]
}

// sigmaAt returns σ = w[i] + Σ_k w_k f_sk for source s, where i is
// the (source, class) weight index; the one definition of σ that
// fillSigma, SigmaClass and the sequential SGD step all read.
func (m *Model) sigmaAt(w []float64, i int, s data.SourceID) float64 {
	sg := w[i]
	for _, c := range m.plan.feat[m.plan.featStart[s]:m.plan.featStart[s+1]] {
		sg += w[c]
	}
	return sg
}

// fillSigma writes σ_{s,c} for every (source, class) into tbl (indexed
// like srcIdx: class·|S|+source), reading the weights from w. Every
// entry comes from sigmaAt, so a cached entry is bit-identical to a
// per-observation recomputation at the same weights.
func (m *Model) fillSigma(w []float64, tbl []float64) {
	for i := range tbl {
		tbl[i] = m.sigmaAt(w, i, data.SourceID(i%m.numSources))
	}
}

// sigmaTable returns the σ-cache for the current model weights,
// recomputing it at most once per frozen-weight phase.
//
// Invalidation contract: every code path that mutates m.w must call
// invalidateSigma before the next frozen-weight phase reads the table.
// Those paths are the optimizer runs in FitERM, FitEM's M-step and
// calibrateOnce, EM's initial-accuracy seeding, and calibrate's
// uniform shift / closed-form per-source steps. SGD never reads this
// cache — accumGradient recomputes σ from the live weights
// at every step; only phases with frozen weights (E-step, inference,
// calibration counting) read the σ-table.
func (m *Model) sigmaTable() []float64 {
	m.sigmaMu.Lock()
	if !m.sigmaValid {
		m.fillSigma(m.w, m.sigma)
		m.sigmaValid = true
	}
	m.sigmaMu.Unlock()
	return m.sigma
}

// invalidateSigma marks the σ-cache stale; see sigmaTable.
func (m *Model) invalidateSigma() {
	m.sigmaMu.Lock()
	m.sigmaValid = false
	m.sigmaMu.Unlock()
}

// scratch bundles the reusable per-worker buffers of the inner loops
// (scores, softmax output, residuals) so steady-state scoring and
// gradient accumulation allocate nothing.
type scratch struct {
	scores []float64
	probs  []float64
	resid  []float64
	// grad is accumGradient's per-object gradient buffer (indexed like
	// the object's plan coordinates); hit and coord serve objects with
	// a zero residual: the touched marks and the compacted list.
	grad  []float64
	hit   []bool
	coord []int32
}

// growFloats returns buf resized to n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// getScratch hands out a per-worker scratch; return it with putScratch.
func (m *Model) getScratch() *scratch {
	if sc, ok := m.scratchPool.Get().(*scratch); ok {
		return sc
	}
	return &scratch{}
}

func (m *Model) putScratch(sc *scratch) { m.scratchPool.Put(sc) }
