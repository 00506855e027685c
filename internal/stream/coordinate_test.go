package stream

import (
	"math"
	"testing"
)

// testCoord is an in-process model of the cluster router's accuracy
// coordinator: it holds the cluster-wide cumulative evidence and
// replays refreshLocked's fold — deltas merged in member order, decay,
// clamp, smoothed accuracy — against member engines through the
// public coordination API. internal/cluster implements the same
// protocol over HTTP; this proves the math at the engine boundary.
type testCoord struct {
	opts  Options
	ix    map[string]int
	names []string
	agree []float64
	total []float64
}

func newTestCoord(opts Options) *testCoord {
	return &testCoord{opts: opts, ix: map[string]int{}}
}

func (c *testCoord) intern(name string) int {
	if i, ok := c.ix[name]; ok {
		return i
	}
	i := len(c.names)
	c.ix[name] = i
	c.names = append(c.names, name)
	c.agree = append(c.agree, 0)
	c.total = append(c.total, 0)
	return i
}

// barrier is one cluster epoch: drain every member in member order,
// fold, recompute accuracies, push the σ-table back.
func (c *testCoord) barrier(t *testing.T, members []*Engine) {
	t.Helper()
	delta := make([]float64, len(c.names), len(c.names)+8)
	dtot := make([]float64, len(c.names), len(c.names)+8)
	obs := make([]int64, len(c.names), len(c.names)+8)
	for _, m := range members { // member order = shard order
		stats, err := m.DrainDeltas()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			i := c.intern(st.Source)
			for len(delta) < len(c.names) {
				delta = append(delta, 0)
				dtot = append(dtot, 0)
				obs = append(obs, 0)
			}
			delta[i] += st.Agree
			dtot[i] += st.Total
			obs[i] += st.Observations
		}
	}
	accs := make([]SourceAccuracy, len(c.names))
	for s := range c.names {
		if c.opts.Decay < 1 && obs[s] > 0 {
			d := math.Pow(c.opts.Decay, float64(obs[s]))
			c.agree[s] *= d
			c.total[s] *= d
		}
		c.agree[s] += delta[s]
		c.total[s] += dtot[s]
		if c.agree[s] < 0 {
			c.agree[s] = 0
		}
		accs[s] = SourceAccuracy{Source: c.names[s], Accuracy: EstimateAccuracy(c.agree[s], c.total[s])}
	}
	for _, m := range members {
		if err := m.ApplyAccuracies(accs, false); err != nil {
			t.Fatal(err)
		}
	}
}

// refine is the distributed exact re-sweep: per sweep, pool every
// member's refine mass in member order, re-anchor the cumulative state
// on it, and push the new σ-table with an eager rescore.
func (c *testCoord) refine(t *testing.T, members []*Engine, sweeps int) {
	t.Helper()
	for sweep := 0; sweep < sweeps; sweep++ {
		mergedA := make([]float64, len(c.names), len(c.names)+8)
		mergedT := make([]float64, len(c.names), len(c.names)+8)
		n := 0
		for _, m := range members {
			stats, err := m.RefineMass()
			if err != nil {
				t.Fatal(err)
			}
			n += len(stats)
			for _, st := range stats {
				i := c.intern(st.Source)
				for len(mergedA) < len(c.names) {
					mergedA = append(mergedA, 0)
					mergedT = append(mergedT, 0)
				}
				mergedA[i] += st.Agree
				mergedT[i] += st.Total
			}
		}
		if n == 0 {
			return
		}
		c.agree, c.total = mergedA, mergedT
		accs := make([]SourceAccuracy, len(c.names))
		for s := range c.names {
			accs[s] = SourceAccuracy{Source: c.names[s], Accuracy: EstimateAccuracy(c.agree[s], c.total[s])}
		}
		for _, m := range members {
			if err := m.ApplyAccuracies(accs, true); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// newMember builds one cluster-member engine: a single shard with
// externally driven epochs. maxObjects is the per-member live-object
// budget (what one shard of the reference engine gets).
func newMember(t *testing.T, opts Options, maxObjects int) *Engine {
	t.Helper()
	eo := DefaultEngineOptions()
	eo.Options = opts
	eo.Shards = 1
	eo.EpochLength = ExternalEpochLength
	eo.MaxObjects = maxObjects
	e, err := NewEngine(eo)
	if err != nil {
		t.Fatal(err)
	}
	if !e.ExternalEpochs() {
		t.Fatal("member engine does not report external epochs")
	}
	return e
}

// clusterEquivalence feeds the same chunked claim stream through a
// reference N-shard engine and through N coordinated single-shard
// members, and requires bit-identical estimates (in output order) and
// source accuracies at every comparison point.
func clusterEquivalence(t *testing.T, opts Options, maxObjects int) {
	const nodes, batch, epochLen = 3, 32, 64
	_, triples := streamInstance(t, 11)

	refOpts := DefaultEngineOptions()
	refOpts.Options = opts
	refOpts.Shards = nodes
	refOpts.EpochLength = epochLen
	refOpts.MaxObjects = maxObjects * nodes
	ref, err := NewEngine(refOpts)
	if err != nil {
		t.Fatal(err)
	}

	members := make([]*Engine, nodes)
	for i := range members {
		members[i] = newMember(t, opts, maxObjects)
	}
	coord := newTestCoord(opts)

	since := 0
	for lo := 0; lo < len(triples); lo += batch {
		hi := lo + batch
		if hi > len(triples) {
			hi = len(triples)
		}
		chunk := make([]Triple, 0, hi-lo)
		for _, tr := range triples[lo:hi] {
			chunk = append(chunk, Triple{Source: tr[0], Object: tr[1], Value: tr[2]})
		}
		ref.ObserveBatch(chunk)

		per := make([][]Triple, nodes)
		for _, tr := range chunk {
			n := ShardIndex(tr.Object, nodes)
			per[n] = append(per[n], tr)
		}
		for i, m := range members {
			if len(per[i]) > 0 {
				m.ObserveBatch(per[i])
			}
		}
		since += len(chunk)
		if since >= epochLen {
			coord.barrier(t, members)
			since = 0
		}
	}

	compareClusterToReference(t, "after ingest", ref, members)
	ref.Refine(2)
	coord.refine(t, members, 2)
	compareClusterToReference(t, "after refine", ref, members)
}

// compareClusterToReference checks the two determinism claims the
// router's scatter-gather relies on: member m holds exactly the
// reference estimates of the objects ShardIndex routes to m, bit for
// bit, and every member's view of a source accuracy is the reference
// accuracy bit for bit.
func compareClusterToReference(t *testing.T, stage string, ref *Engine, members []*Engine) {
	t.Helper()
	want := make([][]Estimate, len(members))
	for _, est := range ref.EstimateAll() {
		m := ShardIndex(est.Object, len(members))
		want[m] = append(want[m], est)
	}
	for mi, m := range members {
		got := m.EstimateAll()
		if len(got) != len(want[mi]) {
			t.Fatalf("%s: member %d has %d estimates, reference routes it %d", stage, mi, len(got), len(want[mi]))
		}
		for i := range got {
			if got[i] != want[mi][i] {
				t.Fatalf("%s: member %d estimate %d diverged: member %+v, reference %+v", stage, mi, i, got[i], want[mi][i])
			}
		}
	}
	refSrcs := ref.Sources()
	seen := map[string]bool{}
	for mi, m := range members {
		for _, s := range m.Sources() {
			seen[s] = true
			if g, w := m.SourceAccuracy(s), ref.SourceAccuracy(s); g != w {
				t.Fatalf("%s: member %d source %s accuracy %v != reference %v", stage, mi, s, g, w)
			}
		}
	}
	if len(seen) != len(refSrcs) {
		t.Fatalf("%s: cluster union has %d sources, reference %d", stage, len(seen), len(refSrcs))
	}
	for _, s := range refSrcs {
		if !seen[s] {
			t.Fatalf("%s: reference source %s missing from cluster union", stage, s)
		}
	}
}

// TestClusterCoordinationMatchesSingleEngine is the scale-out
// equivalence theorem at the engine boundary: three single-shard
// members behind the coordination protocol are bit-identical to one
// three-shard engine fed the same chunk stream — through epoch
// barriers and through the distributed exact re-sweep.
func TestClusterCoordinationMatchesSingleEngine(t *testing.T) {
	clusterEquivalence(t, DefaultOptions(), 0)
}

// TestClusterCoordinationWithDecayAndEviction re-proves equivalence on
// the harder configuration: evidence decay plus a live-object cap, so
// the drained deltas include eviction settlements and the barrier fold
// exercises the decay-and-clamp path.
func TestClusterCoordinationWithDecayAndEviction(t *testing.T) {
	opts := DefaultOptions()
	opts.Decay = 0.995
	clusterEquivalence(t, opts, 120)
}

// TestDrainDeltasDrainsOnce: a second drain with no intervening ingest
// contributes nothing, so a coordinator retrying a barrier cannot
// double-count evidence it already folded.
func TestDrainDeltasDrainsOnce(t *testing.T) {
	e := newMember(t, DefaultOptions(), 0)
	e.ObserveBatch([]Triple{
		{Source: "s1", Object: "o1", Value: "a"},
		{Source: "s2", Object: "o1", Value: "a"},
		{Source: "s1", Object: "o2", Value: "b"},
	})
	first, err := e.DrainDeltas()
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, st := range first {
		mass += st.Agree + st.Total
	}
	if mass == 0 {
		t.Fatal("first drain carried no evidence")
	}
	second, err := e.DrainDeltas()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range second {
		if st.Agree != 0 || st.Total != 0 || st.Observations != 0 {
			t.Fatalf("second drain not empty: %+v", st)
		}
	}
}

// TestApplyAccuraciesInternsAndValidates: pushed tables may name
// sources this member has never seen a claim from — they must be
// interned with the pushed σ so a later claim scores correctly — and
// out-of-range accuracies must be rejected atomically.
func TestApplyAccuraciesInternsAndValidates(t *testing.T) {
	e := newMember(t, DefaultOptions(), 0)
	if err := e.ApplyAccuracies([]SourceAccuracy{{Source: "remote", Accuracy: 0.9}}, false); err != nil {
		t.Fatal(err)
	}
	if got := e.SourceAccuracy("remote"); got != 0.9 {
		t.Fatalf("interned source accuracy = %v, want 0.9", got)
	}
	for _, bad := range []SourceAccuracy{
		{Source: "x", Accuracy: 0},
		{Source: "x", Accuracy: 1},
		{Source: "x", Accuracy: math.NaN()},
		{Source: "", Accuracy: 0.5},
	} {
		if err := e.ApplyAccuracies([]SourceAccuracy{bad}, false); err == nil {
			t.Fatalf("accuracy %+v accepted", bad)
		}
	}
}

// TestCoordinationRejectsOnlineLearner: the σ-table of an online
// engine comes from feature weights a remote coordinator cannot
// reproduce, so the whole coordination API must refuse.
func TestCoordinationRejectsOnlineLearner(t *testing.T) {
	eo := DefaultEngineOptions()
	eo.Shards = 1
	eo.OnlineLearn = true
	eo.Features = map[string][]string{"s1": {"f=a"}}
	e, err := NewEngine(eo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DrainDeltas(); err == nil {
		t.Fatal("DrainDeltas accepted an online engine")
	}
	if _, err := e.RefineMass(); err == nil {
		t.Fatal("RefineMass accepted an online engine")
	}
	if err := e.ApplyAccuracies(nil, false); err == nil {
		t.Fatal("ApplyAccuracies accepted an online engine")
	}
}

// TestOptionsFold pins the epoch fold the engine's refresh and the
// cluster router's barrier share, bit for bit, against the formula
// written out: decay by Decay^obs, add the deltas, clamp agreement at
// 0, then smooth.
func TestOptionsFold(t *testing.T) {
	opts := func(decay float64) Options {
		return Options{Decay: decay}
	}
	for _, tc := range []struct {
		name                 string
		o                    Options
		agree, total, dA, dT float64
		obs                  int64
		wantAgree, wantTotal float64
	}{
		{
			name: "decay 1 is a plain add", o: opts(1),
			agree: 3.25, total: 5, dA: 0.5, dT: 1, obs: 7,
			wantAgree: 3.75, wantTotal: 6,
		},
		{
			name: "no observations do not decay", o: opts(0.9),
			agree: 3.25, total: 5, dA: -0.125, dT: 0, obs: 0,
			wantAgree: 3.125, wantTotal: 5,
		},
		{
			name: "decay scales before adding", o: opts(0.9),
			agree: 3.25, total: 5, dA: 0.5, dT: 1, obs: 3,
			wantAgree: 3.25*math.Pow(0.9, 3) + 0.5, wantTotal: 5*math.Pow(0.9, 3) + 1,
		},
		{
			name: "overshooting drift clamps agreement at 0", o: opts(0.5),
			agree: 1, total: 2, dA: -0.75, dT: 0, obs: 1,
			wantAgree: 0, wantTotal: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			num := InitAccuracy*PriorStrength + tc.wantAgree
			den := PriorStrength + tc.wantTotal
			wantAcc := min(max(num/den, 0.02), 0.98)
			agree, total, acc := tc.o.Fold(tc.agree, tc.total, tc.dA, tc.dT, tc.obs)
			for _, c := range []struct {
				what      string
				got, want float64
			}{{"agree", agree, tc.wantAgree}, {"total", total, tc.wantTotal}, {"accuracy", acc, wantAcc}} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Errorf("%s = %v (%#x), want %v (%#x)", c.what, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
				}
			}
		})
	}
}
