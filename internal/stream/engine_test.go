package stream

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// testEngineOptions pins the knobs that affect float accumulation
// order so tests are reproducible on any host.
func testEngineOptions() EngineOptions {
	opts := DefaultEngineOptions()
	opts.Shards = 4
	opts.Workers = 2
	opts.EpochLength = 256
	return opts
}

// EstimateAll collects EstimatesSeq: every live object's estimate,
// sorted by object name.
func (e *Engine) EstimateAll() []Estimate {
	return slices.Collect(e.EstimatesSeq())
}

func TestEngineOptionsValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name   string
		mutate func(*EngineOptions)
	}{
		{"InitAccuracy=0", func(o *EngineOptions) { o.InitAccuracy = 0 }},
		{"InitAccuracy=NaN", func(o *EngineOptions) { o.InitAccuracy = nan }},
		{"PriorStrength=NaN", func(o *EngineOptions) { o.PriorStrength = nan }},
		{"PriorStrength=+Inf", func(o *EngineOptions) { o.PriorStrength = inf }},
		{"Decay=NaN", func(o *EngineOptions) { o.Decay = nan }},
		{"Decay=-Inf", func(o *EngineOptions) { o.Decay = -inf }},
		{"MaxObjects=-1", func(o *EngineOptions) { o.MaxObjects = -1 }},
	}
	for _, tc := range bad {
		opts := testEngineOptions()
		tc.mutate(&opts)
		if _, err := NewEngine(opts); err == nil {
			t.Errorf("%s should be rejected", tc.name)
		}
	}
	if _, err := NewEngine(DefaultEngineOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineBasicVoting(t *testing.T) {
	e, err := NewEngine(testEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Observe("s1", "o", "a")
	e.Observe("s2", "o", "a")
	e.Observe("s3", "o", "b")
	v, conf, ok := e.Value("o")
	if !ok || v != "a" {
		t.Fatalf("Value = %q (%v), want a", v, ok)
	}
	if conf <= 0.5 || conf > 1 {
		t.Errorf("confidence = %v", conf)
	}
	if _, _, ok := e.Value("nope"); ok {
		t.Error("unknown object should be !ok")
	}
	st := e.Stats()
	if st.Sources != 3 || st.Objects != 1 || st.Observations != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineZeroObservationState(t *testing.T) {
	e, _ := NewEngine(testEngineOptions())
	if _, _, ok := e.Value("ghost"); ok {
		t.Error("empty engine should know no objects")
	}
	if got := len(e.Estimates()); got != 0 {
		t.Errorf("empty engine Estimates = %d entries", got)
	}
	if acc := e.SourceAccuracy("ghost"); acc != e.opts.InitAccuracy {
		t.Errorf("unknown source accuracy = %v, want prior", acc)
	}
	e.Refine(2) // must not panic on an empty engine
	ds, est := e.Snapshot("empty")
	if ds.NumObservations() != 0 || len(est) != 0 {
		t.Error("empty snapshot should be empty")
	}
}

func TestEngineSingleSourceConflict(t *testing.T) {
	// One source re-claiming conflicting values for the same object:
	// single-truth semantics replace the claim, never stack it.
	e, _ := NewEngine(testEngineOptions())
	e.Observe("s1", "o", "a")
	e.Observe("s1", "o", "b")
	e.Observe("s1", "o", "a")
	v, conf, ok := e.Value("o")
	if !ok || v != "a" {
		t.Fatalf("Value = %q (%v), want a", v, ok)
	}
	if math.Abs(conf-1) > 1e-12 {
		t.Errorf("single-claimant posterior = %v, want 1", conf)
	}
	st := e.Stats()
	if st.Objects != 1 || st.Observations != 3 {
		t.Errorf("stats = %+v", st)
	}
	// The same-value re-assertion path must also hold after an epoch
	// turnover (rescore + delta path).
	e.Refine(1)
	if v, _, _ := e.Value("o"); v != "a" {
		t.Errorf("after Refine: %q", v)
	}
}

func TestEngineRefineZeroSweepsIsNoOp(t *testing.T) {
	_, triples := streamInstance(t, 21)
	e, _ := NewEngine(testEngineOptions())
	for _, tr := range triples {
		e.Observe(tr[0], tr[1], tr[2])
	}
	before := engineFingerprint(e)
	e.Refine(0)
	e.Refine(-3)
	if got := engineFingerprint(e); got != before {
		t.Errorf("Refine(<=0) changed state: %x -> %x", before, got)
	}
}

func TestEngineAccuraciesSeparateGoodFromBad(t *testing.T) {
	opts := testEngineOptions()
	opts.EpochLength = 32 // force several σ refreshes
	e, _ := NewEngine(opts)
	for i := 0; i < 50; i++ {
		o := fmt.Sprintf("o%d", i)
		e.Observe("good", o, "t")
		e.Observe("peer1", o, "t")
		e.Observe("peer2", o, "t")
		e.Observe("bad", o, "w")
	}
	e.Refine(1)
	if g, b := e.SourceAccuracy("good"), e.SourceAccuracy("bad"); g <= b+0.3 {
		t.Errorf("good %.2f should clearly exceed bad %.2f", g, b)
	}
}

// TestEngineAgreementConsistency: after a refresh, the settled global
// agreement mass must equal a from-scratch recomputation over live
// posteriors plus the retained evicted mass.
func TestEngineAgreementConsistency(t *testing.T) {
	_, triples := streamInstance(t, 22)
	opts := testEngineOptions()
	opts.EpochLength = 1 // settle after every observation
	e, _ := NewEngine(opts)
	for _, tr := range triples {
		e.Observe(tr[0], tr[1], tr[2])
	}
	n := len(e.src.names)
	agree := make([]float64, n)
	total := make([]float64, n)
	for s := range e.shards {
		sh := &e.shards[s]
		for i := range agree {
			if i < len(sh.evictedAgree) {
				agree[i] += sh.evictedAgree[i]
				total[i] += sh.evictedTotal[i]
			}
		}
		for ix := range sh.objs {
			obj := &sh.objs[ix]
			if !obj.live {
				continue
			}
			for ci := range obj.claims {
				c := &obj.claims[ci]
				agree[c.src] += obj.post[obj.domainIndex(c.val)]
				total[c.src]++
			}
		}
	}
	for s := 0; s < n; s++ {
		if math.Abs(agree[s]-e.src.agree[s]) > 1e-6 || math.Abs(total[s]-e.src.total[s]) > 1e-6 {
			t.Fatalf("source %s: settled (%.4f,%.1f) vs recomputed (%.4f,%.1f)",
				e.src.names[s], e.src.agree[s], e.src.total[s], agree[s], total[s])
		}
	}
}

func TestEngineEviction(t *testing.T) {
	opts := testEngineOptions()
	opts.MaxObjects = 40
	opts.EpochLength = 64
	e, _ := NewEngine(opts)
	// 400 objects, each corroborated by two good sources and disputed
	// by one bad one.
	for i := 0; i < 400; i++ {
		o := fmt.Sprintf("o%03d", i)
		e.Observe("goodA", o, "t")
		e.Observe("goodB", o, "t")
		e.Observe("bad", o, "w")
	}
	st := e.Stats()
	if st.Objects > opts.MaxObjects+e.nShards {
		t.Errorf("live objects = %d, want <= cap %d (plus shard rounding)", st.Objects, opts.MaxObjects)
	}
	if st.EvictedObjects == 0 || st.EvictedClaims == 0 || st.EvictedMass <= 0 {
		t.Errorf("eviction accounting empty: %+v", st)
	}
	if st.EvictedClaims != 3*st.EvictedObjects {
		t.Errorf("evicted claims = %d, want 3 per object (%d objects)", st.EvictedClaims, st.EvictedObjects)
	}
	// Early objects are gone; late ones remain.
	if _, _, ok := e.Value("o000"); ok {
		t.Error("o000 should have been evicted")
	}
	if v, _, ok := e.Value("o399"); !ok || v != "t" {
		t.Errorf("o399 = %q (%v), want t", v, ok)
	}
	// The evicted mass keeps informing reliability: even after the
	// exact re-sweep, the good sources stay clearly above the bad one.
	e.Refine(2)
	if g, b := e.SourceAccuracy("goodA"), e.SourceAccuracy("bad"); g <= b+0.3 {
		t.Errorf("evicted mass lost: good %.2f vs bad %.2f", g, b)
	}
	if len(e.Estimates()) != e.Stats().Objects {
		t.Error("Estimates should cover exactly the live objects")
	}
}

func TestEngineDecayTracksDriftingSource(t *testing.T) {
	opts := testEngineOptions()
	opts.Decay = 0.95
	opts.EpochLength = 16
	e, _ := NewEngine(opts)
	for i := 0; i < 60; i++ {
		o := fmt.Sprintf("p1-%d", i)
		e.Observe("drift", o, "t")
		e.Observe("peerA", o, "t")
		e.Observe("peerB", o, "t")
	}
	accEarly := e.SourceAccuracy("drift")
	for i := 0; i < 60; i++ {
		o := fmt.Sprintf("p2-%d", i)
		e.Observe("drift", o, "w")
		e.Observe("peerA", o, "t")
		e.Observe("peerB", o, "t")
	}
	if accLate := e.SourceAccuracy("drift"); accLate >= accEarly-0.2 {
		t.Errorf("decayed accuracy should fall after drift: %.2f -> %.2f", accEarly, accLate)
	}
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	e, _ := NewEngine(testEngineOptions())
	e.Observe("s1", "o1", "a")
	e.Observe("s2", "o1", "a")
	e.Observe("s1", "o2", "b")
	ds, est := e.Snapshot("snap")
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

// TestEngineConcurrentReadsDuringIngest hammers the read API while a
// writer streams batches and refines; run under -race this is the
// concurrency-safety proof for the serving contract.
func TestEngineConcurrentReadsDuringIngest(t *testing.T) {
	_, triples := streamInstance(t, 23)
	opts := testEngineOptions()
	opts.EpochLength = 128
	opts.MaxObjects = 300
	e, _ := NewEngine(opts)
	batch := make([]Triple, 0, len(triples))
	for _, tr := range triples {
		batch = append(batch, Triple{tr[0], tr[1], tr[2]})
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				e.Value(triples[r*7%len(triples)][1])
				e.SourceAccuracy(triples[r*11%len(triples)][0])
				e.Estimates()
				e.Stats()
			}
		}(r)
	}
	const chunk = 512
	for lo := 0; lo < len(batch); lo += chunk {
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		e.ObserveBatch(batch[lo:hi])
	}
	e.Refine(2)
	close(done)
	wg.Wait()
	if len(e.Estimates()) == 0 {
		t.Error("no estimates after concurrent ingest")
	}
}

// TestEngineConcurrentObserveBatch runs ObserveBatch from several
// goroutines at once, each with its own objects and batch sizes, so
// concurrent calls share the engine's pooled batch scratch. With σ
// frozen (no epoch boundary) every object's posterior depends only on
// its own claims, so the result must equal one goroutine's ingest.
func TestEngineConcurrentObserveBatch(t *testing.T) {
	opts := testEngineOptions()
	opts.EpochLength = 1 << 30
	claims := func(w int) []Triple {
		var out []Triple
		for i := 0; i < 2000; i++ {
			out = append(out, Triple{
				Source: fmt.Sprintf("s%d", (i*7+w)%50),
				Object: fmt.Sprintf("w%d-o%d", w, i%97),
				Value:  fmt.Sprintf("v%d", (i/97+w)%3),
			})
		}
		return out
	}
	ingest := func(e *Engine, w int) {
		all := claims(w)
		for lo, size := 0, 1; lo < len(all); lo, size = lo+size, size*2%301+1 {
			e.ObserveBatch(all[lo:min(lo+size, len(all))])
		}
	}
	want, _ := NewEngine(opts)
	for w := 0; w < 4; w++ {
		ingest(want, w)
	}
	got, _ := NewEngine(opts)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ingest(got, w)
		}(w)
	}
	wg.Wait()
	if g, w := fmt.Sprint(got.EstimateAll()), fmt.Sprint(want.EstimateAll()); g != w {
		t.Errorf("concurrent ObserveBatch estimates differ from sequential ingest:\n got %.300s\nwant %.300s", g, w)
	}
}

// TestEngineConcurrentObserveWithFreshSources hammers the crash path
// the epoch refresh and Refine must survive: multiple goroutines
// interning brand-new sources while refreshes fire every few
// observations and a refiner runs concurrently, with and without the
// online learner. Any stale source-count snapshot inside refresh/Refine
// panics here; with the learner, one that outran the name table it
// registers would hand FitMass unregistered sources.
func TestEngineConcurrentObserveWithFreshSources(t *testing.T) {
	for _, online := range []bool{false, true} {
		t.Run(fmt.Sprintf("online=%v", online), func(t *testing.T) {
			opts := testEngineOptions()
			opts.EpochLength = 8 // refresh constantly
			opts.OnlineLearn = online
			e, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						// Every observation introduces a new source name.
						src := fmt.Sprintf("s-%d-%d", w, i)
						obj := fmt.Sprintf("o%d", i%40)
						e.Observe(src, obj, fmt.Sprintf("v%d", i%3))
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					e.Refine(1)
				}
			}()
			wg.Wait()
			e.Refine(1)
			st := e.Stats()
			if st.Sources != 4*300 || st.Observations != 4*300 {
				t.Errorf("stats = %+v, want 1200 sources and observations", st)
			}
			if len(e.Estimates()) != 40 {
				t.Errorf("objects = %d, want 40", len(e.Estimates()))
			}
		})
	}
}

// TestEngineConcurrentBatchesRefineAndReads is the race and deadlock
// check for applyShard holding the σ-table read lock across a shard's
// sub-batch. Several ObserveBatch callers run both sides of the
// fan-out grain while epoch refreshes fire every few claims, a refiner
// loops, and readers take point reads, scans and source lookups, so
// src.mu writers keep queuing behind held read locks. A nested read
// lock under applyShard would hang here; the watchdog reports that as
// a failure instead of a test timeout.
func TestEngineConcurrentBatchesRefineAndReads(t *testing.T) {
	opts := testEngineOptions()
	opts.Workers = 4
	opts.EpochLength = 48
	opts.MaxObjects = 400
	e, _ := NewEngine(opts)
	const callers, rounds = 3, 20
	sizes := []int{64, 2*fanOutGrain + 17} // inline and fanned out
	var writers, readers sync.WaitGroup
	for w := 0; w < callers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for r := 0; r < rounds; r++ {
				batch := make([]Triple, sizes[(w+r)%len(sizes)])
				for i := range batch {
					batch[i] = Triple{
						Source: fmt.Sprintf("s%d", (i*5+w+r)%40),
						Object: fmt.Sprintf("o%d", (i*13+r*7+w)%600),
						Value:  fmt.Sprintf("v%d", (i+r+w)%4),
					}
				}
				e.ObserveBatch(batch)
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 15; i++ {
			e.Refine(1)
		}
	}()
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e.Value(fmt.Sprintf("o%d", (i*31+r)%600))
				e.SourceAccuracy(fmt.Sprintf("s%d", i%40))
				e.ScanShard(i%e.NumShards(), NoPair, func(*Row) bool { return true })
				e.Stats()
			}
		}(r)
	}
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent ingest, Refine and reads did not finish: deadlock")
	}
	close(stop)
	readers.Wait()
	want := int64(0)
	for w := 0; w < callers; w++ {
		for r := 0; r < rounds; r++ {
			want += int64(sizes[(w+r)%len(sizes)])
		}
	}
	if got := e.Stats().Observations; got != want {
		t.Errorf("observations = %d, want %d", got, want)
	}
}
