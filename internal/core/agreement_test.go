package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"slimfast/internal/data"
	"slimfast/internal/randx"
)

// pairAgreement enumerates every pair of claims on the same object, the
// definition the count-based estimator replaces: per source pair key
// a·|S|+b (a < b), agreements minus disagreements and the overlap.
func pairAgreement(ds *data.Dataset) (agree, overlap map[int64]int64) {
	nS := int64(ds.NumSources())
	agree, overlap = map[int64]int64{}, map[int64]int64{}
	for o := 0; o < ds.NumObjects(); o++ {
		obs := ds.ObjectObservations(data.ObjectID(o))
		for i := 0; i < len(obs); i++ {
			for j := i + 1; j < len(obs); j++ {
				k := int64(obs[i].Source)*nS + int64(obs[j].Source)
				overlap[k]++
				if obs[i].Value == obs[j].Value {
					agree[k]++
				} else {
					agree[k]--
				}
			}
		}
	}
	return agree, overlap
}

// closedFormOracle sums the paper's closed-form numerator over the
// enumerated pairs in ascending key order, the order the dense pair
// matrix used.
func closedFormOracle(ds *data.Dataset) float64 {
	agree, overlap := pairAgreement(ds)
	keys := make([]int64, 0, len(overlap))
	for k := range overlap {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var num float64
	for _, k := range keys {
		num += 2 * float64(agree[k]) / float64(overlap[k])
	}
	return num
}

// edgeDataset has an empty object, one-claim objects, a unanimous
// object, a source that re-reports an object (the later claim replaces
// the earlier one) and a value no claim survives on.
func edgeDataset() *data.Dataset {
	b := data.NewBuilder("edge")
	b.Object("empty")
	b.ObserveNames("s0", "single", "x")
	b.ObserveNames("s3", "single2", "z")
	for _, s := range []string{"s0", "s1", "s2", "s3"} {
		b.ObserveNames(s, "unanimous", "y")
	}
	b.ObserveNames("s0", "dup", "x")
	b.ObserveNames("s1", "dup", "x")
	b.ObserveNames("s2", "dup", "y")
	b.ObserveNames("s0", "dup", "y") // s0 changes its claim on dup
	b.ObserveNames("s1", "dup", "w")
	b.ObserveNames("s1", "dup", "x") // and s1 changes it back
	return b.Freeze()
}

// TestAgreementCountsMatchPairEnumeration checks the per-object value
// counts against brute-force pair enumeration, exactly, and the
// estimator's result bits against the pair sums.
func TestAgreementCountsMatchPairEnumeration(t *testing.T) {
	check := func(ds *data.Dataset) error {
		agree, overlap := pairAgreement(ds)
		var wantNum, wantDen int64
		for k, ov := range overlap {
			wantNum += agree[k]
			wantDen += ov
		}
		num, den := agreementCounts(ds)
		if num != wantNum || den != wantDen {
			return fmt.Errorf("agreementCounts = (%d, %d), pair enumeration (%d, %d)", num, den, wantNum, wantDen)
		}
		want := 0.5
		if ds.NumSources() >= 2 && wantDen != 0 {
			want = finishAverageAccuracy(float64(wantNum), float64(wantDen))
		}
		if got := EstimateAverageAccuracy(ds, true); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("weighted estimate %v, pair enumeration %v", got, want)
		}
		return nil
	}
	for name, ds := range map[string]*data.Dataset{
		"golden": goldenInstance(t).Dataset,
		"edge":   edgeDataset(),
		"tiny":   tinyDataset(),
	} {
		if err := check(ds); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := quick.Check(func(pattern []byte) bool {
		err := check(propDataset(pattern))
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestClosedFormMatchesPairOrder checks the row-wise closed form
// against the ascending-key pair sum, bit for bit.
func TestClosedFormMatchesPairOrder(t *testing.T) {
	check := func(ds *data.Dataset) error {
		if got, want := agreementClosedForm(ds), closedFormOracle(ds); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("closed-form numerator %v, ascending pair sum %v", got, want)
		}
		return nil
	}
	for name, ds := range map[string]*data.Dataset{
		"golden": goldenInstance(t).Dataset,
		"edge":   edgeDataset(),
	} {
		if err := check(ds); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := quick.Check(func(pattern []byte) bool {
		err := check(propDataset(pattern))
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// wideDataset has more sources than the old dense pair matrix allowed
// (4096): 5000 sources spread over 3000 objects, 2–9 claims each.
func wideDataset() *data.Dataset {
	const nS, nO = 5000, 3000
	rng := randx.New(31)
	b := data.NewBuilder("wide")
	for s := 0; s < nS; s++ {
		b.Source(fmt.Sprintf("s%d", s))
	}
	for o := 0; o < nO; o++ {
		obj := fmt.Sprintf("o%d", o)
		for c := 2 + rng.Intn(8); c > 0; c-- {
			b.ObserveNames(fmt.Sprintf("s%d", rng.Intn(nS)), obj, fmt.Sprintf("v%d", rng.Intn(4)))
		}
	}
	return b.Freeze()
}

// TestClosedFormDeterministicWideInstance: above 4096 sources the
// closed form used to sum non-integer ratios in map order. It must now
// give the same bits on every run, equal to the ascending pair sum.
func TestClosedFormDeterministicWideInstance(t *testing.T) {
	ds := wideDataset()
	if ds.NumSources() <= 4096 {
		t.Fatalf("instance has %d sources, want > 4096", ds.NumSources())
	}
	nS := float64(ds.NumSources())
	want := finishAverageAccuracy(closedFormOracle(ds), nS*nS-nS)
	for run := 0; run < 20; run++ {
		if got := EstimateAverageAccuracy(ds, false); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d: closed-form estimate %v (%#x), want %v (%#x)", run, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestWeightedEstimatorMemoryIsPerValue pins the overlap-weighted
// estimator's memory on a 5000-source instance to one per-value
// counter (O(|values|)), where the old pair matrices would take two
// |S|² int64 slabs (400 MB here).
func TestWeightedEstimatorMemoryIsPerValue(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	ds := wideDataset()
	const runs = 10
	if allocs := testing.AllocsPerRun(runs, func() { EstimateAverageAccuracy(ds, true) }); allocs > 1 {
		t.Errorf("weighted estimator allocates %.1f times per call, want at most 1", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		EstimateAverageAccuracy(ds, true)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	// One int32 per value, plus allocator rounding.
	if limit := uint64(4*ds.NumValues() + 1024); perCall > limit {
		t.Errorf("weighted estimator allocates %d B per call on %d sources and %d values, want <= %d", perCall, ds.NumSources(), ds.NumValues(), limit)
	}
}
