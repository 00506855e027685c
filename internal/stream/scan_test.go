package stream

import (
	"fmt"
	"testing"
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
	sh.insert(e, bare, e.CurrentEpoch())
	sh.mu.Unlock()
	if _, _, ok := e.Value(bare); ok {
		t.Fatal("bare object reports a value")
	}

	a, b, ok := e.SourceIDs("goodA", "bad")
	if !ok {
		t.Fatal("sources not interned")
	}
	paired := ScanOptions{PairA: a, PairB: b}
	for _, opt := range []ScanOptions{NoPair, paired} {
		var full []Row
		for s := range e.NumShards() {
			e.ScanShard(s, opt, func(r *Row) bool {
				full = append(full, *r)
				return true
			})
		}
		if len(full) == 0 {
			t.Fatal("full scan visited no rows")
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
