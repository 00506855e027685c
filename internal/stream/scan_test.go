package stream

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// pointRows collects the rows a point scan of object visits in its
// owning shard.
func pointRows(e *Engine, object string, opt ScanOptions) []Row {
	opt.Point, opt.Object = true, object
	var rows []Row
	e.ScanShard(ShardIndex(object, e.NumShards()), opt, func(r *Row) bool {
		rows = append(rows, *r)
		return true
	})
	return rows
}

// TestScanShardPoint pins the point read's edge rows: a live settled
// object yields exactly the row a full scan gives it, and an evicted
// object, a never-seen name, the empty name and a live object with no
// MAP value yet yield nothing.
func TestScanShardPoint(t *testing.T) {
	opts := testEngineOptions()
	opts.MaxObjects = 40
	opts.EpochLength = 64
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		o := fmt.Sprintf("o%03d", i)
		e.Observe("goodA", o, "t")
		e.Observe("goodB", o, "t")
		e.Observe("bad", o, fmt.Sprintf("w%d", i%3))
	}
	if _, _, ok := e.Value("o000"); ok {
		t.Fatal("o000 should have been evicted")
	}

	// A live object whose first claim has not landed has no MAP value.
	const bare = "bare"
	sh := e.shardOf(bare)
	sh.mu.Lock()
	sh.insert(e, bare, sh.index.hash(bare), e.CurrentEpoch())
	sh.mu.Unlock()
	if _, _, ok := e.Value(bare); ok {
		t.Fatal("bare object reports a value")
	}

	a, b, ok := e.SourceIDs("goodA", "bad")
	if !ok {
		t.Fatal("sources not interned")
	}
	paired := ScanOptions{PairA: a, PairB: b}
	dissent := NoPair
	dissent.Dissent = true
	for _, opt := range []ScanOptions{NoPair, paired, dissent} {
		var full []Row
		dissenting := 0
		for s := range e.NumShards() {
			e.ScanShard(s, opt, func(r *Row) bool {
				full = append(full, *r)
				if r.Dissent > 0 {
					dissenting++
				}
				return true
			})
		}
		if len(full) == 0 {
			t.Fatal("full scan visited no rows")
		}
		// Dissent is counted only when the scan walks claims; here
		// every object has a dissenting "bad" claim.
		want := 0
		if opt.Dissent || opt.PairA >= 0 {
			want = len(full)
		}
		if dissenting != want {
			t.Errorf("scan %+v: %d of %d rows dissent, want %d", opt, dissenting, len(full), want)
		}
		for _, want := range full {
			if got := pointRows(e, want.Object, opt); len(got) != 1 || got[0] != want {
				t.Errorf("point scan of %s = %+v, want the full scan's %+v", want.Object, got, want)
			}
		}
	}
	for _, name := range []string{"o000", "never-seen", "", bare} {
		if got := pointRows(e, name, NoPair); len(got) != 0 {
			t.Errorf("point scan of %q visited %d rows, want none", name, len(got))
		}
	}
}

// scanNames lists the objects one scan of every shard visits, shard by
// shard.
func scanNames(e *Engine, byName bool) [][]string {
	out := make([][]string, e.NumShards())
	for s := range out {
		opt := NoPair
		opt.ByName = byName
		e.ScanShard(s, opt, func(r *Row) bool {
			out[s] = append(out[s], r.Object)
			return true
		})
	}
	return out
}

// checkNameOrder fails unless each shard's ByName scan visits exactly
// its slot-order scan's objects, sorted by name.
func checkNameOrder(t *testing.T, e *Engine, when string) {
	t.Helper()
	slot, named := scanNames(e, false), scanNames(e, true)
	total := 0
	for s := range slot {
		want := slices.Clone(slot[s])
		slices.Sort(want)
		if !slices.Equal(named[s], want) {
			t.Fatalf("%s: shard %d ByName scan visits %v, want the sorted live names %v", when, s, named[s], want)
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatalf("%s: no live objects", when)
	}
}

// TestEngineNameOrderScan pins the cached name order behind ByName
// scans: it must match the sorted live names after a restore (the
// order is not checkpointed), after inserts that land before, between
// and after names already ordered, and after LRU evictions whose slots
// are reused by new names; and ByName scans racing ingest must each
// see a strictly ascending, duplicate-free name sequence.
func TestEngineNameOrderScan(t *testing.T) {
	observe := func(e *Engine, names ...string) {
		for _, o := range names {
			e.Observe("goodA", o, "t")
			e.Observe("bad", o, "w")
		}
	}
	spread := func(from, to, step int) []string {
		var out []string
		for i := from; i < to; i += step {
			out = append(out, fmt.Sprintf("o%04d", i))
		}
		return out
	}

	t.Run("inserts", func(t *testing.T) {
		e, err := NewEngine(testEngineOptions())
		if err != nil {
			t.Fatal(err)
		}
		observe(e, spread(100, 200, 3)...)
		checkNameOrder(t, e, "first scan")
		observe(e, spread(0, 300, 7)...) // before, among and after the ordered names
		checkNameOrder(t, e, "after inserts")
		observe(e, spread(100, 200, 3)...) // claims on known names change no order
		checkNameOrder(t, e, "after updates")
	})

	t.Run("restore", func(t *testing.T) {
		e, err := NewEngine(testEngineOptions())
		if err != nil {
			t.Fatal(err)
		}
		observe(e, spread(0, 500, 1)...)
		checkNameOrder(t, e, "before checkpoint")
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := restoreBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		checkNameOrder(t, r, "after restore")
		observe(r, "a-first", "z-last")
		checkNameOrder(t, r, "after inserts into a restored engine")
	})

	t.Run("evictions", func(t *testing.T) {
		opts := testEngineOptions()
		opts.MaxObjects = 40
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		observe(e, spread(0, 40, 1)...)
		checkNameOrder(t, e, "full")
		// Descending names: each insert evicts the least recent object
		// and reuses its slot for a name that sorts before it.
		for round := 0; round < 5; round++ {
			var names []string
			for i := 0; i < 15; i++ {
				names = append(names, fmt.Sprintf("n%02d-%02d", 4-round, 14-i))
			}
			observe(e, names...)
			checkNameOrder(t, e, fmt.Sprintf("after eviction round %d", round))
		}
		if st := e.Stats(); st.EvictedObjects == 0 {
			t.Fatal("no object was evicted")
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		opts := testEngineOptions()
		opts.MaxObjects = 200
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		observe(e, spread(0, 100, 1)...)
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; pass < 40; pass++ {
					for s := range e.NumShards() {
						prev := ""
						e.ScanShard(s, ScanOptions{PairA: -1, PairB: -1, ByName: true}, func(row *Row) bool {
							if row.Object <= prev {
								t.Errorf("shard %d ByName scan visited %q after %q", s, row.Object, prev)
								return false
							}
							prev = row.Object
							return true
						})
					}
				}
			}()
		}
		for i := 0; i < 100; i++ {
			batch := make([]Triple, 0, 16)
			for j := 0; j < 8; j++ {
				o := fmt.Sprintf("c%04d", ((8*i+j)*7919)%1000)
				batch = append(batch, Triple{Source: "goodA", Object: o, Value: "t"}, Triple{Source: "bad", Object: o, Value: "w"})
			}
			e.ObserveBatch(batch)
		}
		wg.Wait()
		checkNameOrder(t, e, "after concurrent ingest")
	})
}

// rowCacheErr recomputes an object's row cache from its domain and
// posterior (the MAP entry by mapIndex, then the posterior of every
// other entry) and reports the first column the cached slot gets
// wrong, floats compared by bits.
func rowCacheErr(o *object, valNames []string) error {
	ix := mapIndex(o, valNames)
	if ix < 0 {
		if o.mapVal != -1 {
			return fmt.Errorf("object %q has no posterior but caches MAP value %d", o.name, o.mapVal)
		}
		return nil
	}
	runner := 0.0
	for i, p := range o.post {
		if i != int(ix) && p > runner {
			runner = p
		}
	}
	switch {
	case o.mapVal != o.domain[ix].val:
		return fmt.Errorf("object %q caches MAP value %d, posterior says %d", o.name, o.mapVal, o.domain[ix].val)
	case math.Float64bits(o.top) != math.Float64bits(o.post[ix]):
		return fmt.Errorf("object %q caches top %v, posterior says %v", o.name, o.top, o.post[ix])
	case math.Float64bits(o.runner) != math.Float64bits(runner):
		return fmt.Errorf("object %q caches runner %v, posterior says %v", o.name, o.runner, runner)
	}
	return nil
}

// checkRowCache fails the test when any live slot of e holds a row
// cache that differs from a recomputation from its posterior.
func checkRowCache(t *testing.T, e *Engine, when string) {
	t.Helper()
	valNames := e.valueNames()
	for s := range e.shards {
		sh := &e.shards[s]
		sh.mu.RLock()
		for ix := range sh.objs {
			if obj := &sh.objs[ix]; obj.live {
				if err := rowCacheErr(obj, valNames); err != nil {
					t.Errorf("%s: shard %d slot %d: %v", when, s, ix, err)
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// TestObjectSlotSize pins the object slot: a full scan reads one slot
// per object, and ingest's resident size grows with it.
func TestObjectSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(object{}); n > 160 {
		t.Errorf("object slot is %d bytes, want <= 160", n)
	}
}

// TestRowCacheOnReusedSlot evicts an object with a three-value domain
// and lets a one-claim object take over its slot: the new object's
// row must be its own (confidence 1, contested 0), with nothing left
// of the old domain or posterior.
func TestRowCacheOnReusedSlot(t *testing.T) {
	opts := testEngineOptions()
	opts.Shards = 1
	opts.MaxObjects = 1
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe("goodA", "old", "x")
	e.Observe("goodB", "old", "y")
	e.Observe("bad", "old", "z")
	e.Observe("goodA", "filler", "t") // evicts old, frees its slot
	e.Observe("goodA", "new", "t")    // evicts filler, reuses old's slot
	if st := e.Stats(); st.EvictedObjects != 2 || len(e.shards[0].objs) != 2 {
		t.Fatalf("want two evictions over two slots, got %+v with %d slots", st, len(e.shards[0].objs))
	}
	checkRowCache(t, e, "after slot reuse")
	rows := pointRows(e, "new", NoPair)
	if len(rows) != 1 || rows[0].Value != "t" || rows[0].Confidence != 1 || rows[0].Contested != 0 {
		t.Errorf("reused slot row = %+v, want value t, confidence 1, contested 0", rows)
	}
}
