package online

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"slimfast/internal/wire"
)

func TestSetFeaturesInternsAndDedups(t *testing.T) {
	l := New()
	l.SetFeatures(0, []string{"b", "a", "b"})
	l.SetFeatures(1, []string{"a", "c"})
	l.SetFeatures(2, nil)
	if l.NumSources() != 3 || len(l.featNames) != 3 {
		t.Fatalf("sources=%d features=%d, want 3/3", l.NumSources(), len(l.featNames))
	}
	if len(l.srcFeats[0]) != 2 {
		t.Errorf("duplicate label not deduped: %v", l.srcFeats[0])
	}
	// Sorted by feature id ("b" interned before "a").
	if l.srcFeats[0][0] != 0 || l.srcFeats[0][1] != 1 {
		t.Errorf("features not sorted: %v", l.srcFeats[0])
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-order registration should panic")
		}
	}()
	l.SetFeatures(7, nil)
}

func TestUntrainedPredictsInitAccuracy(t *testing.T) {
	l := New()
	l.SetFeatures(0, []string{"f"})
	if got := l.Predict(0); math.Abs(got-InitAccuracy) > 1e-12 {
		t.Errorf("untrained Predict = %v, want %v", got, InitAccuracy)
	}
	if got := l.PredictLabels([]string{"unknown"}); math.Abs(got-InitAccuracy) > 1e-12 {
		t.Errorf("untrained PredictLabels = %v, want %v", got, InitAccuracy)
	}
}

// feedCohorts registers nPer sources per cohort (features "good" and
// "bad") and runs epochs FitMass rounds where good sources agree at
// accGood and bad ones at accBad, over mass claims per source.
func feedCohorts(l *Learner, nPer, epochs int, accGood, accBad, mass float64) {
	if l.NumSources() == 0 {
		for s := 0; s < nPer; s++ {
			l.SetFeatures(s, []string{"good"})
		}
		for s := nPer; s < 2*nPer; s++ {
			l.SetFeatures(s, []string{"bad"})
		}
	}
	agree := make([]float64, 2*nPer)
	total := make([]float64, 2*nPer)
	for s := 0; s < nPer; s++ {
		agree[s] = accGood * mass
		total[s] = mass
	}
	for s := nPer; s < 2*nPer; s++ {
		agree[s] = accBad * mass
		total[s] = mass
	}
	for e := 0; e < epochs; e++ {
		l.FitMass(agree, total)
	}
}

func TestLearnsFeatureSeparation(t *testing.T) {
	l := New()
	feedCohorts(l, 6, 30, 0.9, 0.3, 20)
	if wg, wb := l.w[1+l.featIdx["good"]], l.w[1+l.featIdx["bad"]]; wg <= wb+0.5 {
		t.Errorf("good weight %.3f should clearly exceed bad %.3f", wg, wb)
	}
	if pg, pb := l.Predict(0), l.Predict(6); pg <= pb+0.2 {
		t.Errorf("Predict: good %.3f should clearly exceed bad %.3f", pg, pb)
	}
	// A source never seen on the stream inherits its cohort's estimate.
	if p := l.PredictLabels([]string{"bad"}); p >= 0.6 {
		t.Errorf("unseen bad-cohort source predicted %.3f, want < 0.6", p)
	}
	if p := l.PredictLabels([]string{"good"}); p <= 0.7 {
		t.Errorf("unseen good-cohort source predicted %.3f, want > 0.7", p)
	}
}

func TestBlendFollowsEvidenceMass(t *testing.T) {
	l := New()
	feedCohorts(l, 6, 30, 0.9, 0.3, 20)
	// Heavy evidence dominates the prior...
	if a := l.Blend(6, 85, 100); math.Abs(a-0.85) > 0.03 {
		t.Errorf("high-mass blend = %.3f, want ≈ 0.85", a)
	}
	// ...light evidence follows the feature prior.
	prior := l.Predict(6)
	if a := l.Blend(6, 1, 1); math.Abs(a-prior) > 0.15 {
		t.Errorf("low-mass blend = %.3f, want near prior %.3f", a, prior)
	}
	// Degenerate inputs stay in the clamp range.
	if a := l.Blend(0, -5, -3); a < accLo || a > accHi {
		t.Errorf("degenerate blend = %v out of range", a)
	}
}

func TestFitMassDeterministic(t *testing.T) {
	run := func() *Learner {
		l := New()
		feedCohorts(l, 5, 20, 0.85, 0.35, 10)
		return l
	}
	a, b := run(), run()
	for j := range a.w {
		if a.w[j] != b.w[j] {
			t.Fatalf("weight %d differs bit-for-bit: %v vs %v", j, a.w[j], b.w[j])
		}
	}
	for s := 0; s < a.NumSources(); s++ {
		if a.Blend(s, 3, 5) != b.Blend(s, 3, 5) {
			t.Fatalf("accuracy of source %d differs", s)
		}
	}
}

func TestFitMassRejectsUnregisteredSources(t *testing.T) {
	l := New()
	l.SetFeatures(0, nil)
	defer func() {
		if recover() == nil {
			t.Error("oversized epoch vector should panic")
		}
	}()
	l.FitMass(make([]float64, 3), make([]float64, 3))
}

const testMagic = "OLTS"

// encodeLearner round-trips through the wire codec the way the engine
// checkpoint does.
func encodeLearner(t *testing.T, l *Learner) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, testMagic, 1)
	EncodeConfig(w)
	l.Clone().EncodeState(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeLearner reads what encodeLearner wrote; with v5 set, a config
// block and state in the v5 layout, window slots included.
func decodeLearner(b []byte, v5 bool) (*Learner, error) {
	r, err := wire.NewReader(bytes.NewReader(b), testMagic, 1)
	if err != nil {
		return nil, err
	}
	ring, err := DecodeConfig(r, v5)
	if err != nil {
		return nil, err
	}
	l := New()
	if err := l.DecodeState(r, v5, ring); err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return l, nil
}

func TestCodecRoundTripContinuesBitIdentically(t *testing.T) {
	orig := New()
	feedCohorts(orig, 4, 17, 0.88, 0.4, 12)
	restored, err := decodeLearner(encodeLearner(t, orig), false)
	if err != nil {
		t.Fatal(err)
	}
	// Continue both: every subsequent update must stay bit-exact.
	feedCohorts(orig, 4, 9, 0.6, 0.6, 12)
	feedCohorts(restored, 4, 9, 0.6, 0.6, 12)
	assertSameLearner(t, orig, restored)
}

// assertSameLearner fails unless a and b hold the same weights bit for
// bit and blend the same evidence to the same accuracy.
func assertSameLearner(t *testing.T, a, b *Learner) {
	t.Helper()
	if len(a.w) != len(b.w) || a.NumSources() != b.NumSources() {
		t.Fatalf("shapes differ: %d/%d weights, %d/%d sources", len(a.w), len(b.w), a.NumSources(), b.NumSources())
	}
	for j := range a.w {
		if a.w[j] != b.w[j] {
			t.Fatalf("weight %d diverged: %v vs %v", j, a.w[j], b.w[j])
		}
	}
	for s := 0; s < a.NumSources(); s++ {
		if a.Blend(s, 7, 10) != b.Blend(s, 7, 10) {
			t.Fatalf("source %d accuracy diverged", s)
		}
	}
}

// encodeWindowConfig writes the config block in the v5 layout, as a
// writer with a window of the given length laid it out.
func encodeWindowConfig(w *wire.Writer, window int) {
	w.Float64(0.7) // anchor accuracy
	w.Float64(4)   // prior strength
	w.Int(window)
	w.Int(24) // steps
	w.Int(16) // batch
	w.Float64(0.3)
	w.Float64(0.01)
	w.Float64(1e-3)
	w.Bool(true) // intercept
	w.Int64(1)   // seed
}

// TestDecodeConfigChecksEverySlot pins the config block's bytes to the
// values every writer has recorded, and rejects a block in which any
// slot differs, in the v6 layout and in the v5 one, whose window
// length slot is the exception: DecodeConfig returns it.
func TestDecodeConfigChecksEverySlot(t *testing.T) {
	// block writes the v6 block, or with v5 set the v5 block with a
	// window length of 0 as its third slot; edit may write a slot
	// itself and report that it did.
	block := func(v5 bool, edit func(w *wire.Writer, slot int) bool) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf, testMagic, 1)
		writes := []func(){
			func() { w.Float64(0.7) }, func() { w.Float64(4) }, func() { w.Int(0) },
			func() { w.Int(24) }, func() { w.Int(16) }, func() { w.Float64(0.3) },
			func() { w.Float64(0.01) }, func() { w.Float64(1e-3) }, func() { w.Bool(true) },
			func() { w.Int64(1) },
		}
		for slot, write := range writes {
			if slot == 2 && !v5 {
				continue
			}
			if !edit(w, slot) {
				write()
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	decode := func(b []byte, v5 bool) (int, error) {
		r, err := wire.NewReader(bytes.NewReader(b), testMagic, 1)
		if err != nil {
			t.Fatal(err)
		}
		return DecodeConfig(r, v5)
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, testMagic, 1)
	EncodeConfig(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := block(false, func(*wire.Writer, int) bool { return false }); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("EncodeConfig wrote % x, want % x", buf.Bytes(), want)
	}
	if ring, err := decode(buf.Bytes(), false); err != nil || ring != 0 {
		t.Fatalf("own block: ring %d, err %v", ring, err)
	}
	if ring, err := decode(block(true, func(w *wire.Writer, slot int) bool {
		if slot == 2 {
			w.Int(32)
		}
		return slot == 2
	}), true); err != nil || ring != 32 {
		t.Errorf("v5 window length 32: ring %d, err %v; want 32 and no error", ring, err)
	}
	for _, v5 := range []bool{false, true} {
		for slot := 0; slot < 10; slot++ {
			if slot == 2 {
				continue
			}
			b := block(v5, func(w *wire.Writer, at int) bool {
				if at != slot {
					return false
				}
				switch slot {
				case 3, 4:
					w.Int(25)
				case 8:
					w.Bool(false)
				case 9:
					w.Int64(2)
				default:
					w.Float64(0.5)
				}
				return true
			})
			if _, err := decode(b, v5); err == nil {
				t.Errorf("v5 %v, slot %d changed: want an error", v5, slot)
			}
		}
	}
	if _, err := decode(buf.Bytes()[:len(buf.Bytes())/2], false); err == nil {
		t.Error("truncated block: want an error")
	}
}

// TestDecodeStateDropsOldWindow restores a v5 learner section as a
// windowed writer laid it out (a 32-slot ring with evidence in it) and
// checks that the ring is dropped: the learner restores with its
// weights, counters and sources, and keeps training exactly like one
// that never had the window.
func TestDecodeStateDropsOldWindow(t *testing.T) {
	ref := New()
	feedCohorts(ref, 2, 5, 0.9, 0.3, 10)
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, testMagic, 1)
	encodeWindowConfig(w, 32)
	w.Strings(ref.featNames)
	w.Float64s(ref.w)
	w.Uint32(uint32(ref.NumSources()))
	for _, fs := range ref.srcFeats {
		w.Int32s(fs)
	}
	w.Uint32(32)
	for i := 0; i < 32; i++ {
		n := min(i, ref.NumSources()) // slots as long as the sources seen by then
		w.Float64s(make([]float64, n))
		w.Float64s(make([]float64, n))
	}
	w.Int(5)                          // ring position
	w.Float64s([]float64{9, 9, 3, 3}) // window sums
	w.Float64s([]float64{10, 10, 10, 10})
	w.Int64(ref.epochs)
	w.Int64(ref.step)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := decodeLearner(buf.Bytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLearner(t, ref, old)
	feedCohorts(ref, 2, 4, 0.5, 0.5, 10)
	feedCohorts(old, 2, 4, 0.5, 0.5, 10)
	assertSameLearner(t, ref, old)
}

// TestEncodeStateWritesCumulativeShape pins the state a writer emits:
// the cumulative learner's alone, with none of the window slots a v5
// file carries. The source features are followed by the epoch and
// step counters and then the footer.
func TestEncodeStateWritesCumulativeShape(t *testing.T) {
	l := New()
	feedCohorts(l, 2, 3, 0.9, 0.3, 10)
	r, err := wire.NewReader(bytes.NewReader(encodeLearner(t, l)), testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeConfig(r, false); err != nil {
		t.Fatal(err)
	}
	r.Strings()
	r.Float64s()
	nSrc := int(r.Uint32())
	for s := 0; s < nSrc; s++ {
		r.Int32s()
	}
	epochs, step := r.Int64(), r.Int64()
	if err := r.Close(); err != nil {
		t.Fatalf("the state holds more than its counters after the features: %v", err)
	}
	if nSrc != 4 || epochs != l.epochs || step != l.step {
		t.Errorf("%d sources, epochs %d, step %d: want 4, %d, %d", nSrc, epochs, step, l.epochs, l.step)
	}
}

func TestDecodeStateRejectsCorruption(t *testing.T) {
	write := func(build func(w *wire.Writer)) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf, testMagic, 1)
		encodeWindowConfig(w, 32)
		build(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name  string
		build func(w *wire.Writer)
	}{
		{"weights-vs-features", func(w *wire.Writer) {
			w.Strings([]string{"f"})
			w.Float64s([]float64{0}) // want 2 weights for 1 feature
		}},
		{"dangling-feature-id", func(w *wire.Writer) {
			w.Strings([]string{"f"})
			w.Float64s([]float64{0, 0})
			w.Uint32(1)
			w.Int32s([]int32{5})
		}},
		{"duplicate-label", func(w *wire.Writer) {
			w.Strings([]string{"f", "f"})
			w.Float64s([]float64{0, 0, 0})
		}},
		{"ring-size-mismatch", func(w *wire.Writer) {
			w.Strings(nil)
			w.Float64s([]float64{0})
			w.Uint32(0)
			w.Uint32(3) // the config records a window of 32
		}},
		{"ragged-window-sums", func(w *wire.Writer) {
			w.Strings(nil)
			w.Float64s([]float64{0})
			w.Uint32(1)       // one source
			w.Int32s(nil)     // its features
			w.Uint32(32)      // ring slots
			writeEmptyRing(w) // 32 empty slots
			w.Int(0)
			w.Float64s(nil) // winAgree: empty for 1 source
			w.Float64s(nil)
			w.Int64(0)
			w.Int64(0)
		}},
		{"ragged-ring-slot", func(w *wire.Writer) {
			w.Strings(nil)
			w.Float64s([]float64{0})
			w.Uint32(1)
			w.Int32s(nil)
			w.Uint32(32)
			w.Float64s([]float64{1})
			w.Float64s(nil) // total shorter than agree
		}},
		{"ring-slot-beyond-sources", func(w *wire.Writer) {
			w.Strings(nil)
			w.Float64s([]float64{0})
			w.Uint32(1)
			w.Int32s(nil)
			w.Uint32(32)
			w.Float64s([]float64{1, 1}) // two sources, table has one
			w.Float64s([]float64{1, 1})
		}},
		{"ring-pos-out-of-range", func(w *wire.Writer) {
			w.Strings(nil)
			w.Float64s([]float64{0})
			w.Uint32(0)
			w.Uint32(32)
			writeEmptyRing(w)
			w.Int(99)
			w.Float64s(nil)
			w.Float64s(nil)
			w.Int64(0)
			w.Int64(0)
		}},
	}
	for _, tc := range cases {
		if _, err := decodeLearner(write(tc.build), true); err == nil {
			t.Errorf("%s: corrupt state should be rejected", tc.name)
		}
	}
	// Truncation surfaces as a wire error, never a panic.
	good := encodeLearner(t, New())
	for _, cut := range []int{9, len(good) / 2, len(good) - 2} {
		if _, err := decodeLearner(good[:cut], false); err == nil {
			t.Errorf("cut=%d: truncated state should be rejected", cut)
		}
	}
}

func writeEmptyRing(w *wire.Writer) {
	for i := 0; i < 32; i++ {
		w.Float64s(nil)
		w.Float64s(nil)
	}
}

func TestAccuracyNamesAreStable(t *testing.T) {
	// Guard the layout contract the engine relies on: feature ids are
	// first-seen ordered and stable across identical registrations.
	l := New()
	for s := 0; s < 4; s++ {
		l.SetFeatures(s, []string{fmt.Sprintf("g%d", s%2)})
	}
	if len(l.featNames) != 2 {
		t.Fatalf("features = %d, want 2", len(l.featNames))
	}
	if l.featIdx["g0"] != 0 || l.featIdx["g1"] != 1 {
		t.Errorf("feature ids not first-seen ordered: %v", l.featIdx)
	}
}
