package stream

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"testing"

	"slimfast/internal/randx"
)

// applyTwoPass is the claim update before the rescore was folded into
// it: a stale object first rescores with a softmax and MAP note of its
// own, then the claim lands with a second softmax. object.apply must
// match it bit for bit in scores, post, the row cache and changed.
func applyTwoPass(o *object, sid, vid int32, sigma float64, epoch int64, sigmas []float64, valNames []string) (added bool) {
	if o.epoch != epoch {
		o.rescore(sigmas, valNames, epoch)
	}
	ci := -1
	for i := range o.claims {
		if o.claims[i].src == sid {
			ci = i
			break
		}
	}
	switch {
	case ci >= 0 && o.claims[ci].val == vid:
		return false
	case ci >= 0:
		old := o.domainIndex(o.claims[ci].val)
		o.scores[old] -= sigma
		o.domain[old].refs--
		nw := o.ensureDomain(vid)
		o.scores[nw] += sigma
		o.domain[nw].refs++
		o.claims[ci].val = vid
	default:
		o.claims = append(o.claims, claim{src: sid, val: vid})
		nw := o.ensureDomain(vid)
		o.scores[nw] += sigma
		o.domain[nw].refs++
		added = true
	}
	o.refreshPosterior()
	o.noteMAP(valNames, epoch)
	return added
}

// sigmaPalette is the σ values the generated streams draw from: exact
// and near ties (sums such as 0.25+0.75 against 1, gaps of one ulp and
// gaps on either side of leaderMargin), magnitudes where the softmax
// underflows, and NaN and ±Inf.
var sigmaPalette = []float64{
	0, 0.25, 0.5, 0.75, 1, -0.5, -1, 2,
	math.Nextafter(0.5, 1), math.Nextafter(1, 0), 1 + 1e-12, 1 + 1.5e-9,
	1 + 2e-9, 1 + 2.5e-9, 1 + 5e-9, 2 - 3e-9,
	1e-300, 700, -700, 1e300,
	math.NaN(), math.Inf(1), math.Inf(-1), 36.7,
}

// fusedStream drives object.apply and applyTwoPass side by side over
// the claim stream next decodes, and reports the first divergence or
// the first row cache that disagrees with its object's posterior.
// Three objects, six sources and four values keep claims colliding.
func fusedStream(next func() byte) error {
	const nObj, nSrc = 3, 6
	valNames := []string{"b", "a", "d", "c"}
	sigmas := make([]float64, nSrc)
	for s := range sigmas {
		sigmas[s] = sigmaPalette[int(next())%len(sigmaPalette)]
	}
	epoch := int64(1)
	var fused, ref [nObj]object
	for i := range fused {
		fused[i] = object{epoch: epoch, mapVal: -1, live: true}
		ref[i] = object{epoch: epoch, mapVal: -1, live: true}
	}
	for step := 0; step < 64; step++ {
		op := next()
		if op%4 == 0 {
			// A refresh: a new epoch with some σ moved.
			epoch++
			for k := 0; k <= int(op>>2)%3; k++ {
				sigmas[int(next())%nSrc] = sigmaPalette[int(next())%len(sigmaPalette)]
			}
			continue
		}
		o := int(op>>2) % nObj
		sid := int32(int(next()) % nSrc)
		vid := int32(int(next()) % len(valNames))
		a := fused[o].apply(sid, vid, sigmas[sid], epoch, sigmas, valNames)
		b := applyTwoPass(&ref[o], sid, vid, sigmas[sid], epoch, sigmas, valNames)
		err := sameObject(&fused[o], &ref[o])
		if err == nil {
			err = rowCacheErr(&fused[o], valNames)
		}
		if err != nil || a != b {
			return fmt.Errorf("step %d, object %d, source %d claims %q at epoch %d (added %v vs %v): %v",
				step, o, sid, valNames[vid], epoch, a, b, err)
		}
	}
	return nil
}

// sameObject compares the state apply must reproduce, floats by bits.
func sameObject(got, want *object) error {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	switch {
	case got.mapVal != want.mapVal || got.changed != want.changed || got.epoch != want.epoch:
		return fmt.Errorf("mapVal/changed/epoch %d/%d/%d, want %d/%d/%d",
			got.mapVal, got.changed, got.epoch, want.mapVal, want.changed, want.epoch)
	case !slices.Equal(bits([]float64{got.top, got.runner}), bits([]float64{want.top, want.runner})):
		return fmt.Errorf("top/runner %v/%v, want %v/%v", got.top, got.runner, want.top, want.runner)
	case !slices.Equal(bits(got.post), bits(want.post)):
		return fmt.Errorf("post %v, want %v", got.post, want.post)
	case !slices.Equal(bits(got.scores), bits(want.scores)):
		return fmt.Errorf("scores %v, want %v", got.scores, want.scores)
	case !slices.Equal(got.claims, want.claims) || !slices.Equal(got.domain, want.domain):
		return fmt.Errorf("claims/domain diverged")
	}
	return nil
}

// byteStream reads b, then zeros.
func byteStream(b []byte) func() byte {
	return func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
}

// TestFusedRescoreMatchesTwoPass runs the differential over generated
// streams; FuzzFusedRescore explores further from the same decoder.
func TestFusedRescoreMatchesTwoPass(t *testing.T) {
	rng := randx.New(26)
	buf := make([]byte, 512)
	for run := 0; run < 2000; run++ {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		if err := fusedStream(byteStream(buf)); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// TestLeaderMatchesSoftmax pins leader against the softmax it
// replaces on the boundary cases: a one-claim object, an exact tie, a
// gap just inside and just outside leaderMargin, and NaN/±Inf scores.
func TestLeaderMatchesSoftmax(t *testing.T) {
	valNames := []string{"b", "a", "c"}
	for _, tc := range []struct {
		scores []float64
		refs   []int32
		fast   bool // leader answers without the softmax
	}{
		{[]float64{0.4}, []int32{1}, true},
		{[]float64{1, 1}, []int32{1, 1}, false},
		{[]float64{1 + 4e-9, 1}, []int32{1, 1}, true},
		{[]float64{1 + 2e-9, 1}, []int32{1, 1}, false},
		{[]float64{0, 5, 1}, []int32{1, 0, 1}, true}, // a dead entry never leads
		{[]float64{math.NaN(), 1}, []int32{1, 1}, false},
		{[]float64{math.Inf(1), 1}, []int32{1, 1}, false},
		{[]float64{-800, 900}, []int32{1, 1}, true},      // the loser's posterior underflows
		{[]float64{1, 1.2, 0.5}, []int32{2, 1, 1}, true}, // ln 2 per vote: the two-vote entry leads
	} {
		o := &object{scores: tc.scores, mapVal: -1}
		for i, r := range tc.refs {
			o.domain = append(o.domain, domEntry{val: int32(i), refs: r})
		}
		ix := o.leader()
		if (ix >= 0) != tc.fast {
			t.Errorf("scores %v: leader %d, want fast path %v", tc.scores, ix, tc.fast)
		}
		o.refreshPosterior()
		if want := mapIndex(o, valNames); ix >= 0 && ix != want {
			t.Errorf("scores %v: leader %d, softmax MAP %d", tc.scores, ix, want)
		}
	}
}

// FuzzFusedRescore is the differential between the fused rescore and
// the two-pass rescore-then-apply over fuzzed claim streams.
func FuzzFusedRescore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{20, 20, 21, 5, 1, 2, 9, 3, 1, 8, 1, 0, 13, 4, 2})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 5, 0, 0, 9, 1, 1, 4, 0, 8, 5, 0, 1, 5, 1, 1})
	f.Add([]byte{22, 23, 9, 10, 11, 12, 5, 0, 0, 5, 1, 1, 5, 2, 0, 0, 3, 13, 5, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := fusedStream(byteStream(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// indexModel drives an objIndex and a map[string]int through the same
// insert / evict (an LRU cap) / restore churn, with the hash chosen by
// mode: 0 is maphash, 1 squeezes every name onto four tags, and 2
// gives distinct tags that share a few home words near the end of the
// table, so probe runs collide and wrap.
func indexModel(next func() byte) error {
	mode := next() % 3
	lruCap := 1 + int(next())%48
	seed := maphash.MakeSeed()
	hash := func(name string) uint64 {
		switch mode {
		case 1:
			return uint64(len(name)%4) << 32
		case 2:
			k := uint64(len(name))*31 + uint64(name[len(name)-1])
			return (16*k+15-k%3)<<32 | k
		}
		return maphash.String(seed, name)
	}
	var objs []object
	var free []int
	var lru []string // oldest first
	model := map[string]int{}
	idx := objIndex{seed: seed}
	evict := func(name string) {
		slot := model[name]
		idx.remove(hash(name), slot)
		delete(model, name)
		objs[slot].name = ""
		free = append(free, slot)
		lru = slices.DeleteFunc(lru, func(n string) bool { return n == name })
	}
	for step := 0; step < 200; step++ {
		op := next()
		name := fmt.Sprintf("n%d", int(next())%64+64*int(op>>6))
		switch op % 4 {
		case 0, 1: // observe: insert when absent, evicting past the cap
			if got := idx.find(objs, name, hash(name)); got != -1 {
				if got != model[name] {
					return fmt.Errorf("step %d: find(%q) = %d, want %d", step, name, got, model[name])
				}
				continue
			}
			if _, ok := model[name]; ok {
				return fmt.Errorf("step %d: find(%q) missed a live name", step, name)
			}
			var slot int
			if n := len(free); n > 0 {
				slot, free = free[n-1], free[:n-1]
			} else {
				slot = len(objs)
				objs = append(objs, object{})
			}
			objs[slot].name = name
			idx.insert(hash(name), slot)
			model[name] = slot
			lru = append(lru, name)
			if len(model) > lruCap {
				evict(lru[0])
			}
		case 2: // evict a named object
			if _, ok := model[name]; ok {
				evict(name)
			}
		case 3: // restore: rebuild a fresh index in slot order
			idx = objIndex{seed: seed}
			for slot := range objs {
				if n := objs[slot].name; n != "" {
					idx.insert(hash(n), slot)
				}
			}
		}
		if idx.n != len(model) {
			return fmt.Errorf("step %d: index holds %d, model %d", step, idx.n, len(model))
		}
		for n, slot := range model {
			if got := idx.find(objs, n, hash(n)); got != slot {
				return fmt.Errorf("step %d: find(%q) = %d, want %d", step, n, got, slot)
			}
		}
	}
	return nil
}

func TestObjIndexMatchesMap(t *testing.T) {
	rng := randx.New(27)
	buf := make([]byte, 512)
	for run := 0; run < 300; run++ {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		buf[0] = byte(run % 3)
		if err := indexModel(byteStream(buf)); err != nil {
			t.Fatalf("run %d (mode %d): %v", run, run%3, err)
		}
	}
}

// FuzzObjIndex is the differential between the flat object index and
// a map[string]int.
func FuzzObjIndex(f *testing.F) {
	f.Add([]byte{0, 8, 0, 1, 0, 2, 0, 3, 2, 1, 3, 0})
	f.Add([]byte{1, 3, 0, 1, 1, 2, 0, 3, 0, 4, 2, 2, 3, 0, 0, 5})
	f.Add([]byte{2, 40, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 2, 3, 2, 7, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := indexModel(byteStream(data)); err != nil {
			t.Fatal(err)
		}
	})
}
