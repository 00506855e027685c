package stream

import (
	"fmt"
	"math"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Decay: 0},
		{Decay: 1.5},
		{Decay: math.NaN()},
		{Decay: math.Inf(1)},
		{Decay: math.Inf(-1)},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("options %d should be rejected", i)
		}
	}
	if _, err := New(DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestBasicVoting(t *testing.T) {
	f, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f.Observe("s1", "o", "a")
	f.Observe("s2", "o", "a")
	f.Observe("s3", "o", "b")
	v, conf, ok := f.Value("o")
	if !ok || v != "a" {
		t.Fatalf("Value = %q (%v), want a", v, ok)
	}
	if conf <= 0.5 || conf > 1 {
		t.Errorf("confidence = %v", conf)
	}
	if _, _, ok := f.Value("nope"); ok {
		t.Error("unknown object should be !ok")
	}
}

func TestReclaimReplaces(t *testing.T) {
	f, _ := New(DefaultOptions())
	f.Observe("s1", "o", "a")
	f.Observe("s1", "o", "b") // source changes its mind
	v, _, _ := f.Value("o")
	if v != "b" {
		t.Errorf("re-claim should replace: got %q", v)
	}
	ns, no, nobs := f.Stats()
	if ns != 1 || no != 1 || nobs != 2 {
		t.Errorf("stats = (%d,%d,%d)", ns, no, nobs)
	}
}

func TestAccuraciesSeparateGoodFromBad(t *testing.T) {
	f, _ := New(DefaultOptions())
	// good agrees with two corroborators on 50 objects; bad always
	// dissents.
	for i := 0; i < 50; i++ {
		o := fmt.Sprintf("o%d", i)
		f.Observe("good", o, "t")
		f.Observe("peer1", o, "t")
		f.Observe("peer2", o, "t")
		f.Observe("bad", o, "w")
	}
	if g, b := f.SourceAccuracy("good"), f.SourceAccuracy("bad"); g <= b+0.3 {
		t.Errorf("good %.2f should clearly exceed bad %.2f", g, b)
	}
	if f.SourceAccuracy("never-seen") != InitAccuracy {
		t.Error("unknown source should return the prior")
	}
}

// streamInstance converts a synthetic batch instance into a shuffled
// stream of (source, object, value) triples.
func streamInstance(t *testing.T, seed int64) (*synth.Instance, [][3]string) {
	t.Helper()
	inst, err := synth.Generate(synth.Config{
		Name: "stream", Sources: 50, Objects: 500, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.2,
		MeanAccuracy: 0.7, AccuracySD: 0.12, MinAccuracy: 0.45, MaxAccuracy: 0.95,
		EnsureTruthObserved: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := inst.Dataset
	triples := make([][3]string, 0, ds.NumObservations())
	for _, ob := range ds.Observations {
		triples = append(triples, [3]string{
			ds.SourceNames[ob.Source], ds.ObjectNames[ob.Object], ds.ValueNames[ob.Value],
		})
	}
	rng := randx.New(seed + 1)
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
	return inst, triples
}

func TestStreamingApproximatesBatchAccuracy(t *testing.T) {
	inst, triples := streamInstance(t, 7)
	f, _ := New(DefaultOptions())
	for _, tr := range triples {
		f.Observe(tr[0], tr[1], tr[2])
	}
	// Score the streaming estimates against gold by name.
	correct, total := 0, 0
	ds := inst.Dataset
	for o, truth := range inst.Gold {
		v, _, ok := f.Value(ds.ObjectNames[o])
		if !ok {
			continue
		}
		total++
		if v == ds.ValueNames[truth] {
			correct++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Errorf("streaming accuracy = %.3f, want >= 0.9", acc)
	}
	// Source accuracies should track the latent truth.
	var errSum float64
	n := 0
	for s := 0; s < ds.NumSources(); s++ {
		if ds.SourceObservationCount(data.SourceID(s)) < 20 {
			continue
		}
		errSum += math.Abs(f.SourceAccuracy(ds.SourceNames[s]) - inst.TrueAccuracy[s])
		n++
	}
	if n == 0 {
		t.Fatal("no well-observed sources")
	}
	if meanErr := errSum / float64(n); meanErr > 0.12 {
		t.Errorf("mean source accuracy error = %.3f, want <= 0.12", meanErr)
	}
}

func TestRefineImproves(t *testing.T) {
	inst, triples := streamInstance(t, 8)
	f, _ := New(DefaultOptions())
	for _, tr := range triples {
		f.Observe(tr[0], tr[1], tr[2])
	}
	score := func() float64 {
		correct, total := 0, 0
		for o, truth := range inst.Gold {
			v, _, ok := f.Value(inst.Dataset.ObjectNames[o])
			if !ok {
				continue
			}
			total++
			if v == inst.Dataset.ValueNames[truth] {
				correct++
			}
		}
		return float64(correct) / float64(total)
	}
	before := score()
	f.Refine(3)
	after := score()
	if after+0.02 < before {
		t.Errorf("Refine should not hurt: %.3f -> %.3f", before, after)
	}
}

func TestDecayTracksDriftingSource(t *testing.T) {
	opts := DefaultOptions()
	opts.Decay = 0.95
	f, _ := New(opts)
	// Phase 1: source is perfect for 60 objects.
	for i := 0; i < 60; i++ {
		o := fmt.Sprintf("p1-%d", i)
		f.Observe("drift", o, "t")
		f.Observe("peerA", o, "t")
		f.Observe("peerB", o, "t")
	}
	accEarly := f.SourceAccuracy("drift")
	// Phase 2: source turns bad for 60 objects.
	for i := 0; i < 60; i++ {
		o := fmt.Sprintf("p2-%d", i)
		f.Observe("drift", o, "w")
		f.Observe("peerA", o, "t")
		f.Observe("peerB", o, "t")
	}
	accLate := f.SourceAccuracy("drift")
	if accLate >= accEarly-0.2 {
		t.Errorf("decayed accuracy should fall after drift: %.2f -> %.2f", accEarly, accLate)
	}

	// Without decay the fall is slower.
	f2, _ := New(DefaultOptions())
	for i := 0; i < 60; i++ {
		o := fmt.Sprintf("p1-%d", i)
		f2.Observe("drift", o, "t")
		f2.Observe("peerA", o, "t")
		f2.Observe("peerB", o, "t")
	}
	for i := 0; i < 60; i++ {
		o := fmt.Sprintf("p2-%d", i)
		f2.Observe("drift", o, "w")
		f2.Observe("peerA", o, "t")
		f2.Observe("peerB", o, "t")
	}
	if f2.SourceAccuracy("drift") <= accLate {
		t.Errorf("no-decay estimate (%.2f) should stay above decayed (%.2f)",
			f2.SourceAccuracy("drift"), accLate)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	f, _ := New(DefaultOptions())
	f.Observe("s1", "o1", "a")
	f.Observe("s2", "o1", "a")
	f.Observe("s1", "o2", "b")
	ds, est := f.Snapshot("snap")
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.NumObservations() != 3 || ds.NumSources() != 2 || ds.NumObjects() != 2 {
		t.Errorf("snapshot shape wrong: %d obs, %d src, %d obj",
			ds.NumObservations(), ds.NumSources(), ds.NumObjects())
	}
	if len(est) != 2 {
		t.Errorf("snapshot estimates = %d, want 2", len(est))
	}
}

func TestIncrementalAgreementConsistency(t *testing.T) {
	// The incrementally maintained per-source agreement mass must match
	// a from-scratch recomputation (Refine's first half) at any point.
	_, triples := streamInstance(t, 9)
	f, _ := New(DefaultOptions())
	for i, tr := range triples {
		f.Observe(tr[0], tr[1], tr[2])
		if i == len(triples)/2 || i == len(triples)-1 {
			// Snapshot incremental state.
			incr := map[string][2]float64{}
			for name, st := range f.sources {
				incr[name] = [2]float64{st.agree, st.total}
			}
			// Recompute from scratch (posteriors unchanged).
			for _, st := range f.sources {
				st.agree, st.total = 0, 0
			}
			for _, obj := range f.objects {
				for s, v := range obj.claims {
					st := f.sources[s]
					st.agree += obj.posterior[v]
					st.total++
				}
			}
			for name, st := range f.sources {
				if math.Abs(st.agree-incr[name][0]) > 1e-6 || math.Abs(st.total-incr[name][1]) > 1e-6 {
					t.Fatalf("source %s: incremental (%.4f,%.1f) vs recomputed (%.4f,%.1f)",
						name, incr[name][0], incr[name][1], st.agree, st.total)
				}
			}
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	_, triples := streamInstance(t, 10)
	run := func() map[string]string {
		f, _ := New(DefaultOptions())
		for _, tr := range triples {
			f.Observe(tr[0], tr[1], tr[2])
		}
		return f.Estimates()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different estimate counts")
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("nondeterministic estimate for %s", k)
		}
	}
}

func TestFuserSingleSourceConflict(t *testing.T) {
	// A lone source flip-flopping on one object: the claim is replaced
	// each time, so the posterior must stay a point mass on the latest
	// value (no ghost mass on abandoned values).
	f, _ := New(DefaultOptions())
	f.Observe("s1", "o", "a")
	f.Observe("s1", "o", "b")
	f.Observe("s1", "o", "a")
	v, conf, ok := f.Value("o")
	if !ok || v != "a" {
		t.Fatalf("Value = %q (%v), want a", v, ok)
	}
	if math.Abs(conf-1) > 1e-12 {
		t.Errorf("single-claimant posterior = %v, want 1", conf)
	}
}

func TestFuserRefineZeroSweepsIsNoOp(t *testing.T) {
	_, triples := streamInstance(t, 30)
	f, _ := New(DefaultOptions())
	for _, tr := range triples {
		f.Observe(tr[0], tr[1], tr[2])
	}
	before := map[string]float64{}
	for name := range f.sources {
		before[name] = f.SourceAccuracy(name)
	}
	est := f.Estimates()
	f.Refine(0)
	f.Refine(-1)
	for name, acc := range before {
		if f.SourceAccuracy(name) != acc {
			t.Fatalf("Refine(0) changed accuracy of %s", name)
		}
	}
	after := f.Estimates()
	for o, v := range est {
		if after[o] != v {
			t.Fatalf("Refine(0) changed estimate of %s", o)
		}
	}
}

func TestFuserZeroObservationState(t *testing.T) {
	f, _ := New(DefaultOptions())
	if _, _, ok := f.Value("ghost"); ok {
		t.Error("empty fuser should know no objects")
	}
	if len(f.Estimates()) != 0 {
		t.Error("empty fuser Estimates should be empty")
	}
	f.Refine(2) // must not panic with no objects
	ds, est := f.Snapshot("empty")
	if ds.NumObservations() != 0 || len(est) != 0 {
		t.Error("empty snapshot should be empty")
	}
}
