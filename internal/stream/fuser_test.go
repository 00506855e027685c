// The seed sequential Fuser, kept as the reference oracle the sharded
// Engine is tested against (golden_test.go, stream_test.go). It is
// the estimator in its plainest form: per-call map rebuilds, one
// posterior recomputed per Observe, no epochs and no shards.
//
// The Fuser ingests observations one at a time and maintains, at every
// moment, SLiMFast-style estimates: per-object posteriors under the
// log-odds voting model of Equation 4 and per-source accuracies
// anchored on posterior agreement. State per source is two scalars
// (expected-correct mass and total mass), optionally decayed so
// drifting sources are tracked; state per object is its claim set and
// cached posterior. A change to the estimator lands here and in the
// Engine together, or the golden comparisons fail.

package stream

import (
	"sort"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
)

type sourceState struct {
	agree float64 // Σ posterior probability of the source's claims
	total float64 // claim mass (decayed)
}

type objectState struct {
	claims    map[string]string // source -> value
	posterior map[string]float64
}

// Fuser is a streaming data-fusion engine. Not safe for concurrent use;
// wrap with a mutex if needed.
type Fuser struct {
	opts    Options
	sources map[string]*sourceState
	objects map[string]*objectState
	nObs    int
}

// New returns an empty Fuser.
func New(opts Options) (*Fuser, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Fuser{
		opts:    opts,
		sources: map[string]*sourceState{},
		objects: map[string]*objectState{},
	}, nil
}

// accuracy returns the current smoothed accuracy of a source state.
func (f *Fuser) accuracy(st *sourceState) float64 {
	return EstimateAccuracy(st.agree, st.total)
}

// sigma returns the voting weight (log odds) of a source.
func (f *Fuser) sigma(name string) float64 {
	st := f.sources[name]
	if st == nil {
		return mathx.Logit(InitAccuracy)
	}
	return mathx.Logit(f.accuracy(st))
}

// recomputePosterior rebuilds an object's posterior from its claims
// under the current source weights and returns it. Claims are folded
// in sorted source order: several sources voting for the same value
// share one float accumulator, so map iteration order would otherwise
// make the sum (and the posterior bits) vary run to run.
func (f *Fuser) recomputePosterior(obj *objectState) map[string]float64 {
	srcs := make([]string, 0, len(obj.claims))
	for src := range obj.claims {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	scores := map[string]float64{}
	votes := map[string]int{}
	for _, src := range srcs {
		scores[obj.claims[src]] += f.sigma(src)
		votes[obj.claims[src]]++
	}
	// Stable ordering for the softmax input.
	vals := make([]string, 0, len(scores))
	for v := range scores {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	// ACCU's weight: each vote adds ln n on top of its logit.
	lnN := mathx.LogFalseValues(len(vals))
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = scores[v] + float64(votes[v])*lnN
	}
	ps := mathx.Softmax(xs, nil)
	post := make(map[string]float64, len(vals))
	for i, v := range vals {
		post[v] = ps[i]
	}
	return post
}

// Observe ingests one claim: source says object has value. Re-claiming
// the same (source, object) replaces the previous value (single-truth
// semantics). The touched object's posterior and its observers'
// accuracies are updated incrementally.
func (f *Fuser) Observe(source, object, value string) {
	f.nObs++
	src := f.sources[source]
	if src == nil {
		src = &sourceState{}
		f.sources[source] = src
	}
	obj := f.objects[object]
	if obj == nil {
		obj = &objectState{claims: map[string]string{}}
		f.objects[object] = obj
	}

	// Remove the old posterior's contribution to every observer of
	// this object (their agreement mass will be re-added under the new
	// posterior below).
	for s, v := range obj.claims {
		if st := f.sources[s]; st != nil && obj.posterior != nil {
			st.agree -= obj.posterior[v]
			st.total--
		}
	}

	// Apply decay to the observing source's own history at claim time.
	if f.opts.Decay < 1 {
		src.agree *= f.opts.Decay
		src.total *= f.opts.Decay
	}
	obj.claims[source] = value

	// Recompute the posterior under current weights and re-add the
	// agreement mass for all observers.
	obj.posterior = f.recomputePosterior(obj)
	for s, v := range obj.claims {
		st := f.sources[s]
		if st == nil {
			st = &sourceState{}
			f.sources[s] = st
		}
		st.agree += obj.posterior[v]
		st.total++
	}
}

// Value returns the current MAP estimate and its posterior probability
// for an object; ok is false when the object is unknown.
func (f *Fuser) Value(object string) (value string, confidence float64, ok bool) {
	obj := f.objects[object]
	if obj == nil || len(obj.posterior) == 0 {
		return "", 0, false
	}
	// Deterministic argmax: highest probability, ties to the smaller
	// string.
	vals := make([]string, 0, len(obj.posterior))
	for v := range obj.posterior {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	best, bestP := vals[0], obj.posterior[vals[0]]
	for _, v := range vals[1:] {
		if obj.posterior[v] > bestP {
			best, bestP = v, obj.posterior[v]
		}
	}
	return best, bestP, true
}

// SourceAccuracy returns the current accuracy estimate for a source
// (the prior for unknown sources).
func (f *Fuser) SourceAccuracy(source string) float64 {
	st := f.sources[source]
	if st == nil {
		return InitAccuracy
	}
	return f.accuracy(st)
}

// sortedObjectNames returns the known object names in ascending
// order — the canonical iteration order for everything that sums
// floats or emits output per object, so results are bit-identical
// across runs instead of following Go's randomized map order.
func (f *Fuser) sortedObjectNames() []string {
	names := make([]string, 0, len(f.objects))
	for name := range f.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Estimates returns the MAP value of every known object, computed in
// sorted object order so the underlying Value calls (and any caller
// iterating the result via a sorted key list) are deterministic.
func (f *Fuser) Estimates() map[string]string {
	out := make(map[string]string, len(f.objects))
	for _, name := range f.sortedObjectNames() {
		if v, _, ok := f.Value(name); ok {
			out[name] = v
		}
	}
	return out
}

// Stats reports the stream's size so far.
func (f *Fuser) Stats() (sources, objects, observations int) {
	return len(f.sources), len(f.objects), f.nObs
}

// Refine runs full re-estimation sweeps over all objects (posterior
// under current weights, then accuracies from agreement), tightening
// the single-pass estimates toward the batch fixed point. Call it
// sparingly (e.g. every N thousand observations); each sweep is
// O(total claims).
func (f *Fuser) Refine(sweeps int) {
	if sweeps <= 0 {
		return
	}
	// Sorted object order fixes the float accumulation order, making
	// each sweep bit-identical across runs (map iteration order would
	// perturb the per-source sums in the low bits).
	names := f.sortedObjectNames()
	for i := 0; i < sweeps; i++ {
		// Re-derive accuracies from scratch under current posteriors.
		for _, st := range f.sources {
			st.agree = 0
			st.total = 0
		}
		for _, name := range names {
			obj := f.objects[name]
			for s, v := range obj.claims {
				st := f.sources[s]
				st.agree += obj.posterior[v]
				st.total++
			}
		}
		// Re-derive posteriors under the new accuracies.
		for _, name := range names {
			obj := f.objects[name]
			obj.posterior = f.recomputePosterior(obj)
		}
	}
}

// Snapshot exports the accumulated claims as an immutable Dataset plus
// the current MAP estimates, for handing to the batch SLiMFast pipeline
// (e.g. to fit domain features offline). Objects and sources are
// interned in sorted-name order so the export is deterministic.
func (f *Fuser) Snapshot(name string) (*data.Dataset, data.TruthMap) {
	b := data.NewBuilder(name)
	for _, oname := range f.sortedObjectNames() {
		obj := f.objects[oname]
		srcNames := make([]string, 0, len(obj.claims))
		for s := range obj.claims {
			srcNames = append(srcNames, s)
		}
		sort.Strings(srcNames)
		for _, sname := range srcNames {
			b.ObserveNames(sname, oname, obj.claims[sname])
		}
	}
	ds := b.Freeze()
	estimates := data.TruthMap{}
	if tm, err := data.TruthFromNames(ds, f.Estimates()); err == nil {
		estimates = tm
	}
	return ds, estimates
}
