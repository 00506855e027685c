package stream

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// edgeCase is one numeric edge case: a claim stream run through the
// Engine and through the oracle Fuser.
type edgeCase struct {
	name   string
	claims [][3]string // (source, object, value) in ingest order
	// load writes the claim set straight into the oracle and lets its
	// Refine build the posteriors (see loadFuser) instead of streaming
	// it through Observe. The Engine always streams.
	load bool
	// uniform > 0 installs A = 1/uniform for every source through
	// ApplyAccuracies. On an object whose claims name uniform values
	// each vote then weighs ln(n·A/(1−A)) = 0 to within rounding, so
	// every posterior entry must be 1/uniform (within 1e-12) and want
	// pins the MAP only where the scores tie exactly. The Fuser has no
	// ApplyAccuracies, so such a case runs on the Engine alone.
	uniform int
	// want pins the MAP value per object after Refine, and conf its
	// posterior probability (within 1e-15), in both estimators.
	want map[string]string
	conf map[string]float64
	// saturated lists sources whose accuracy must sit at the 0.98
	// clamp after Refine, in both estimators.
	saturated []string
}

// edgeCases builds the table. The two tie cases feed values in
// reverse lexical order, so a tie that resolves to the smaller name is
// the tie-break at work and not first-seen order.
func edgeCases() []edgeCase {
	single := edgeCase{
		name:   "single-source",
		claims: [][3]string{{"s0", "o", "a"}},
		want:   map[string]string{"o": "a"},
		conf:   map[string]float64{"o": 1},
	}

	// 10k sources each claim a distinct value of one object: a 10k-way
	// tie at the prior, broken to the smallest name.
	const n = 10000
	huge := edgeCase{name: "10k-value-domain", load: true, want: map[string]string{"o": "v00000"}}
	for i := n - 1; i >= 0; i-- {
		huge.claims = append(huge.claims, [3]string{fmt.Sprintf("s%05d", i), "o", fmt.Sprintf("v%05d", i)})
	}

	// 200 sources agree on 60 objects, so each one's smoothed accuracy
	// passes 0.98 and clamps. On the last object 199 of them outvote
	// one dissenter by 198·logit(0.98) ≈ 770 nats: exp underflows, and
	// the dissenting value's posterior is exactly 0.
	const srcs, objs = 200, 60
	sat := edgeCase{name: "saturated-accuracy", want: map[string]string{"contested": "x"}}
	for o := objs - 1; o >= 0; o-- {
		for s := range srcs {
			sat.claims = append(sat.claims, [3]string{fmt.Sprintf("s%03d", s), fmt.Sprintf("o%02d", o), "t"})
		}
	}
	for s := range srcs {
		name, v := fmt.Sprintf("s%03d", s), "x"
		if s == 0 {
			v = "w"
		} else {
			sat.saturated = append(sat.saturated, name)
		}
		sat.claims = append(sat.claims, [3]string{name, "contested", v})
	}

	tie := edgeCase{
		name:   "exact-tie",
		claims: [][3]string{{"s1", "o", "b"}, {"s2", "o", "a"}},
		want:   map[string]string{"o": "a"},
		conf:   map[string]float64{"o": 0.5},
	}

	// Under logit(A) every vote at A = 1/4 weighed −ln 3, so o's
	// two-vote value had the least posterior mass. Object p's four
	// single votes tie exactly, so its MAP is the tie-break's.
	uniform := edgeCase{
		name:    "accuracy-one-over-domain",
		uniform: 4,
		claims: [][3]string{
			{"s0", "o", "a"}, {"s1", "o", "a"}, {"s2", "o", "b"}, {"s3", "o", "c"}, {"s4", "o", "d"},
			{"s0", "p", "d"}, {"s1", "p", "c"}, {"s2", "p", "b"}, {"s3", "p", "a"},
		},
		want: map[string]string{"p": "a"},
	}
	return []edgeCase{single, huge, sat, tie, uniform}
}

// loadFuser writes claims into the oracle's claim sets and runs one
// Refine sweep, which rebuilds every posterior and accuracy from the
// claim set alone. Streaming n claimants of one object through Observe
// is quadratic in n (each call re-sorts and re-scores every claim:
// about 40 s at n = 10k), so the huge-domain case loads this way.
func loadFuser(f *Fuser, claims [][3]string) {
	for _, c := range claims {
		if f.sources[c[0]] == nil {
			f.sources[c[0]] = &sourceState{}
		}
		obj := f.objects[c[1]]
		if obj == nil {
			obj = &objectState{claims: map[string]string{}}
			f.objects[c[1]] = obj
		}
		obj.claims[c[0]] = c[2]
		f.nObs++
	}
	f.Refine(1)
}

// checkNormalized asserts every posterior entry is a finite
// probability and each object's posterior sums to 1 within 1e-12.
func checkNormalized(t *testing.T, who string, posts map[string][]float64) {
	t.Helper()
	for o, ps := range posts {
		sum := 0.0
		for _, p := range ps {
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
				t.Fatalf("%s: object %s has posterior entry %v", who, o, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%s: object %s posterior sums to %.17g", who, o, sum)
		}
	}
}

// enginePosteriors copies every live object's posterior slab.
func enginePosteriors(e *Engine) map[string][]float64 {
	out := map[string][]float64{}
	for s := range e.shards {
		sh := &e.shards[s]
		sh.mu.RLock()
		for ix := range sh.objs {
			if obj := &sh.objs[ix]; obj.live {
				out[obj.name] = append([]float64(nil), obj.post...)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// fuserPosteriors copies every object's posterior in value order.
func fuserPosteriors(f *Fuser) map[string][]float64 {
	out := map[string][]float64{}
	for _, name := range f.sortedObjectNames() {
		post := f.objects[name].posterior
		vals := make([]string, 0, len(post))
		for v := range post {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		for _, v := range vals {
			out[name] = append(out[name], post[v])
		}
	}
	return out
}

// checkReaders asserts the Engine's three readers agree bit for bit on
// every object: Value, the point ScanShard row and the EstimateAll
// entry, with the full scans yielding exactly EstimateAll's objects.
func checkReaders(t *testing.T, e *Engine) {
	t.Helper()
	all := e.EstimateAll()
	scanned := 0
	for s := range e.NumShards() {
		e.ScanShard(s, NoPair, func(*Row) bool { scanned++; return true })
	}
	if scanned != len(all) {
		t.Fatalf("full scans visit %d rows, EstimateAll has %d", scanned, len(all))
	}
	for _, est := range all {
		v, conf, ok := e.Value(est.Object)
		if !ok || v != est.Value || conf != est.Confidence {
			t.Fatalf("Value(%s) = (%q, %v, %v), EstimateAll has (%q, %v)", est.Object, v, conf, ok, est.Value, est.Confidence)
		}
		rows := pointRows(e, est.Object, NoPair)
		if len(rows) != 1 || rows[0].Value != est.Value || rows[0].Confidence != est.Confidence {
			t.Fatalf("point row of %s = %+v, EstimateAll has (%q, %v)", est.Object, rows, est.Value, est.Confidence)
		}
	}
}

// TestEngineNumericEdgeCasesMatchFuser pins the estimator's numeric
// edge cases on the Engine and the oracle Fuser alike: a single-source
// object, a 10k-value domain, accuracies saturated at the clamp, an
// exact tie, and every source at A = 1/|D|. Posteriors stay finite and
// normalized, the Engine's readers agree, and after Refine the two
// estimators serve the same MAP values.
func TestEngineNumericEdgeCasesMatchFuser(t *testing.T) {
	const sweeps = 3
	for _, tc := range edgeCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := testEngineOptions()
			opts.Shards = 2
			e, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.claims {
				e.Observe(c[0], c[1], c[2])
			}
			if tc.uniform > 0 {
				var accs []SourceAccuracy
				for _, s := range e.Sources() {
					accs = append(accs, SourceAccuracy{Source: s, Accuracy: 1 / float64(tc.uniform)})
				}
				if err := e.ApplyAccuracies(accs, true); err != nil {
					t.Fatal(err)
				}
				posts := enginePosteriors(e)
				checkNormalized(t, "engine", posts)
				for o, ps := range posts {
					for i, p := range ps {
						if math.Abs(p-1/float64(tc.uniform)) > 1e-12 {
							t.Errorf("object %s entry %d posterior %v, want 1/%d", o, i, p, tc.uniform)
						}
					}
				}
				for o, v := range tc.want {
					if got, _, _ := e.Value(o); got != v {
						t.Errorf("object %s = %q, want %q", o, got, v)
					}
				}
				return
			}

			f, err := New(DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if tc.load {
				loadFuser(f, tc.claims)
			} else {
				for _, c := range tc.claims {
					f.Observe(c[0], c[1], c[2])
				}
			}
			checkNormalized(t, "engine", enginePosteriors(e))
			checkNormalized(t, "fuser", fuserPosteriors(f))
			checkReaders(t, e)

			e.Refine(sweeps)
			f.Refine(sweeps)
			checkNormalized(t, "refined engine", enginePosteriors(e))
			checkNormalized(t, "refined fuser", fuserPosteriors(f))
			checkReaders(t, e)
			got, want := e.Estimates(), f.Estimates()
			if len(got) != len(want) {
				t.Fatalf("engine has %d estimates, fuser %d", len(got), len(want))
			}
			for o, v := range want {
				if got[o] != v {
					t.Errorf("object %s: engine %q, fuser %q", o, got[o], v)
				}
			}
			for o, v := range tc.want {
				if want[o] != v {
					t.Errorf("object %s = %q, want %q", o, want[o], v)
				}
			}
			for o, p := range tc.conf {
				_, a, _ := e.Value(o)
				_, b, _ := f.Value(o)
				if math.Abs(a-p) > 1e-15 || math.Abs(b-p) > 1e-15 {
					t.Errorf("object %s confidence engine %v, fuser %v, want %v", o, a, b, p)
				}
			}
			for _, s := range tc.saturated {
				if a, b := e.SourceAccuracy(s), f.SourceAccuracy(s); a != 0.98 || b != 0.98 {
					t.Errorf("source %s accuracy engine %v, fuser %v, want the 0.98 clamp", s, a, b)
				}
			}
		})
	}
}
