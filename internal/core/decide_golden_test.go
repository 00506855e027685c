package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/randx"
)

// goldenDecideFingerprint hashes the default options' decision at three
// training fractions. Decide must keep every field of the Decision
// bit-identical under the overlap-weighted estimator, whose
// integer-valued sums are exactly order-independent.
const goldenDecideFingerprint uint64 = 0x6730730b90d7afcd

func decisionFingerprint(decs ...Decision) uint64 {
	h := fnv.New64a()
	var b8 [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b8[:], u)
		h.Write(b8[:])
	}
	for _, dec := range decs {
		put(uint64(int64(dec.Algorithm)))
		if dec.BoundFired {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(dec.ERMBound))
		put(math.Float64bits(dec.ERMUnits))
		put(math.Float64bits(dec.EMUnits))
		put(math.Float64bits(dec.AvgAccuracy))
	}
	return h.Sum64()
}

func TestDecideGoldenFingerprint(t *testing.T) {
	inst := goldenInstance(t)
	var decs []Decision
	for _, frac := range []float64{0.05, 0.3, 0.8} {
		train, _ := data.Split(inst.Gold, frac, randx.New(5))
		decs = append(decs, Decide(inst.Dataset, train, DefaultOptimizerOptions()))
	}
	if got := decisionFingerprint(decs...); got != goldenDecideFingerprint {
		t.Errorf("decision fingerprint = %#x, want %#x (Decide changed arithmetic, not just layout)", got, goldenDecideFingerprint)
	}
}

// TestEstimateAverageAccuracyMatchesReference checks both estimator
// variants against a straightforward per-pair reference. The reference
// sums the closed form's non-integer ratios in map order, so the
// comparison allows float reassociation noise; agreement_test.go pins
// the exact bits.
func TestEstimateAverageAccuracyMatchesReference(t *testing.T) {
	inst := goldenInstance(t)
	ds := inst.Dataset
	type pairStat struct {
		agreeMinusDisagree int
		overlap            int
	}
	stats := map[[2]data.SourceID]*pairStat{}
	for o := 0; o < ds.NumObjects(); o++ {
		obs := ds.ObjectObservations(data.ObjectID(o))
		for i := 0; i < len(obs); i++ {
			for j := i + 1; j < len(obs); j++ {
				k := [2]data.SourceID{obs[i].Source, obs[j].Source}
				st := stats[k]
				if st == nil {
					st = &pairStat{}
					stats[k] = st
				}
				st.overlap++
				if obs[i].Value == obs[j].Value {
					st.agreeMinusDisagree++
				} else {
					st.agreeMinusDisagree--
				}
			}
		}
	}
	for _, weighted := range []bool{true, false} {
		var num, den float64
		if weighted {
			for _, st := range stats {
				num += float64(st.agreeMinusDisagree)
				den += float64(st.overlap)
			}
		} else {
			for _, st := range stats {
				num += 2 * float64(st.agreeMinusDisagree) / float64(st.overlap)
			}
			nS := ds.NumSources()
			den = float64(nS*nS - nS)
		}
		muSq := num / den
		if muSq < 0 {
			muSq = 0
		}
		want := (math.Sqrt(muSq) + 1) / 2
		if want < 0.5 {
			want = 0.5
		}
		got := EstimateAverageAccuracy(ds, weighted)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("EstimateAverageAccuracy(weighted=%v) = %v, want %v", weighted, got, want)
		}
	}
}
