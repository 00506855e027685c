package baselines

import (
	"math"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/metrics"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// benchInstance is a moderately hard instance all baselines should do
// well on: heterogeneous but better-than-chance sources.
func benchInstance(t *testing.T, seed int64) *synth.Instance {
	t.Helper()
	inst, err := synth.Generate(synth.Config{
		Name: "bl", Sources: 50, Objects: 500, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.25,
		MeanAccuracy: 0.7, AccuracySD: 0.12, MinAccuracy: 0.45, MaxAccuracy: 0.95,
		EnsureTruthObserved: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func allMethods() []Method {
	return []Method{
		MajorityVote{},
		NewCounts(),
		NewACCU(),
		NewCATD(),
		NewSSTF(),
	}
}

func TestMethodsBeatChanceOnEasyInstance(t *testing.T) {
	inst := benchInstance(t, 71)
	train, test := data.Split(inst.Gold, 0.2, randx.New(1))
	for _, m := range allMethods() {
		out, err := m.Fuse(inst.Dataset, train)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		acc := metrics.ObjectAccuracy(out.Values, test)
		// Chance on a 3-valued domain is ~0.33; all methods should be
		// far above it, and most should beat raw majority-adjacent
		// levels.
		if acc < 0.7 {
			t.Errorf("%s accuracy = %v, want >= 0.7", m.Name(), acc)
		}
	}
}

func TestMethodsPinLabeledObjects(t *testing.T) {
	inst := benchInstance(t, 72)
	train, _ := data.Split(inst.Gold, 0.3, randx.New(2))
	for _, m := range allMethods() {
		out, err := m.Fuse(inst.Dataset, train)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for o, v := range train {
			if out.Values[o] != v {
				t.Errorf("%s: labeled object %d returned %d, want %d", m.Name(), o, out.Values[o], v)
				break
			}
		}
	}
}

func TestMajorityVoteDeterministicTieBreak(t *testing.T) {
	b := data.NewBuilder("tie")
	b.ObserveNames("s1", "o", "b")
	b.ObserveNames("s2", "o", "a")
	d := b.Freeze()
	out, err := MajorityVote{}.Fuse(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tie: smallest ValueID wins. "b" was interned first (id 0).
	if out.Values[0] != 0 {
		t.Errorf("tie break should pick smallest id, got %d", out.Values[0])
	}
}

func TestMajorityVotePosteriors(t *testing.T) {
	b := data.NewBuilder("p")
	b.ObserveNames("s1", "o", "a")
	b.ObserveNames("s2", "o", "a")
	b.ObserveNames("s3", "o", "b")
	d := b.Freeze()
	out, err := MajorityVote{}.Fuse(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	post := out.Posteriors[0]
	if math.Abs(post[0]-2.0/3.0) > 1e-12 {
		t.Errorf("majority posterior = %v, want 2/3", post[0])
	}
}

func TestCountsRequiresTruth(t *testing.T) {
	inst := benchInstance(t, 73)
	if _, err := NewCounts().Fuse(inst.Dataset, nil); err == nil {
		t.Error("Counts without ground truth should error")
	}
}

func TestCountsAccuraciesTrackTruth(t *testing.T) {
	inst := benchInstance(t, 74)
	train, _ := data.Split(inst.Gold, 0.5, randx.New(3))
	out, err := NewCounts().Fuse(inst.Dataset, train)
	if err != nil {
		t.Fatal(err)
	}
	trueAcc := inst.Dataset.TrueSourceAccuracies(inst.Gold)
	srcErr := metrics.SourceAccuracyError(inst.Dataset, out.SourceAccuracies, trueAcc)
	if srcErr > 0.08 {
		t.Errorf("Counts source error with 50%% truth = %v, want <= 0.08", srcErr)
	}
}

func TestACCUUnsupervisedConverges(t *testing.T) {
	inst := benchInstance(t, 75)
	out, err := NewACCU().Fuse(inst.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.ObjectAccuracy(out.Values, inst.Gold)
	if acc < 0.8 {
		t.Errorf("unsupervised ACCU accuracy = %v, want >= 0.8", acc)
	}
	for s, a := range out.SourceAccuracies {
		if a < 0.05 || a > 0.99 {
			t.Fatalf("ACCU accuracy %d out of clamp: %v", s, a)
		}
	}
}

func TestCATDWeightsFavorAccurateSources(t *testing.T) {
	inst := benchInstance(t, 76)
	out, err := NewCATD().Fuse(inst.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compare mean weight of the top accuracy quartile vs bottom.
	trueAcc := inst.TrueAccuracy
	type sw struct{ acc, w float64 }
	var sws []sw
	for s := range trueAcc {
		if inst.Dataset.SourceObservationCount(data.SourceID(s)) > 0 {
			sws = append(sws, sw{trueAcc[s], out.SourceAccuracies[s]})
		}
	}
	var hi, lo, hiN, loN float64
	for _, x := range sws {
		if x.acc > 0.8 {
			hi += x.w
			hiN++
		}
		if x.acc < 0.6 {
			lo += x.w
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("instance lacks accuracy spread")
	}
	if hi/hiN <= lo/loN {
		t.Errorf("CATD should weight accurate sources higher: hi=%v lo=%v", hi/hiN, lo/loN)
	}
}

func TestCATDLongTailRobustness(t *testing.T) {
	// CATD's selling point: long-tail sources with few observations
	// should not dominate. Build an instance where a tiny source is
	// perfect on 1 object and a big source is 0.9 on many.
	b := data.NewBuilder("tail")
	// Big source: 20 objects, 18 correct.
	for i := 0; i < 20; i++ {
		name := objName(i)
		if i < 18 {
			b.ObserveNames("big", name, "t"+name)
		} else {
			b.ObserveNames("big", name, "wrong")
		}
		// A few peers so objects have conflicts.
		b.ObserveNames("peer1", name, "t"+name)
		b.ObserveNames("peer2", name, "wrong")
	}
	b.ObserveNames("tiny", "o0", "to0") // single correct observation
	d := b.Freeze()
	out, err := NewCATD().Fuse(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := out.SourceAccuracies[0]
	var tiny float64
	for s, n := range d.SourceNames {
		if n == "tiny" {
			tiny = out.SourceAccuracies[s]
		}
	}
	if tiny >= big {
		t.Errorf("chi-square interval should discount the 1-observation source: tiny=%v big=%v", tiny, big)
	}
}

func objName(i int) string {
	return "o" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestSSTFExploitsLabels(t *testing.T) {
	inst := benchInstance(t, 77)
	_, test := data.Split(inst.Gold, 0.3, randx.New(4))
	unsup, err := NewSSTF().Fuse(inst.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := data.Split(inst.Gold, 0.3, randx.New(4))
	sup, err := NewSSTF().Fuse(inst.Dataset, train)
	if err != nil {
		t.Fatal(err)
	}
	accUnsup := metrics.ObjectAccuracy(unsup.Values, test)
	accSup := metrics.ObjectAccuracy(sup.Values, test)
	if accSup+0.02 < accUnsup {
		t.Errorf("labels should not hurt SSTF: %v -> %v", accUnsup, accSup)
	}
}

func TestMethodMetadata(t *testing.T) {
	probabilistic := map[string]bool{
		"Majority": true, "Counts": true, "ACCU": true,
		"CATD": false, "SSTF": false,
	}
	for _, m := range allMethods() {
		want, ok := probabilistic[m.Name()]
		if !ok {
			t.Fatalf("unexpected method name %q", m.Name())
		}
		if m.HasProbabilisticAccuracies() != want {
			t.Errorf("%s: HasProbabilisticAccuracies = %v, want %v", m.Name(), !want, want)
		}
	}
}

func TestMethodsHandleEmptyObjects(t *testing.T) {
	b := data.NewBuilder("empty")
	b.Object("lonely")
	b.ObserveNames("s1", "seen", "x")
	b.ObserveNames("s2", "seen", "y")
	d := b.Freeze()
	train := data.TruthMap{1: 0}
	for _, m := range allMethods() {
		out, err := m.Fuse(d, train)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if _, ok := out.Values[0]; ok {
			t.Errorf("%s: estimated a value for an unobserved object", m.Name())
		}
	}
}
