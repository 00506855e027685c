package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"slimfast/internal/mathx"
	"slimfast/internal/online"
	"slimfast/internal/wire"
)

// checkpointAt replays the canonical ingest pattern of ingestEngine
// (700-claim batches, then singles) but checkpoints after batchCut
// full batches, restores from the bytes, and finishes the stream on
// BOTH the original and the restored engine. It returns the pair so
// tests can compare them to each other and to a never-stopped run.
func checkpointAt(t *testing.T, triples [][3]string, workers, batchCut int) (original, restored *Engine) {
	t.Helper()
	opts := DefaultEngineOptions()
	opts.Shards = 4
	opts.Workers = workers
	opts.EpochLength = 512
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 700
	feed := func(eng *Engine, lo int) {
		for ; lo+chunk <= len(triples); lo += chunk {
			batch := make([]Triple, chunk)
			for i, tr := range triples[lo : lo+chunk] {
				batch[i] = Triple{tr[0], tr[1], tr[2]}
			}
			eng.ObserveBatch(batch)
		}
		for _, tr := range triples[lo:] {
			eng.Observe(tr[0], tr[1], tr[2])
		}
	}
	// First half: batchCut full batches.
	cut := batchCut * chunk
	if cut > len(triples) {
		t.Fatalf("batchCut %d beyond stream of %d", batchCut, len(triples))
	}
	lo := 0
	for ; lo+chunk <= cut; lo += chunk {
		batch := make([]Triple, chunk)
		for i, tr := range triples[lo : lo+chunk] {
			batch[i] = Triple{tr[0], tr[1], tr[2]}
		}
		e.ObserveBatch(batch)
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	feed(e, lo)
	feed(r, lo)
	return e, r
}

// TestGoldenCheckpointRestartDeterminism is the headline property of
// the checkpoint subsystem: checkpoint mid-stream, restore, finish
// ingest — the restored engine's fingerprint (every posterior and
// accuracy, bit for bit) must equal both the original's and that of
// an engine that never stopped, for one ingest worker and for four.
func TestGoldenCheckpointRestartDeterminism(t *testing.T) {
	_, triples := streamInstance(t, 7)
	for _, workers := range []int{1, 4} {
		uninterrupted := ingestEngine(t, triples, workers)
		want := engineFingerprint(uninterrupted)
		original, restored := checkpointAt(t, triples, workers, 3)
		if got := engineFingerprint(original); got != want {
			t.Errorf("workers=%d: original-after-checkpoint fingerprint %x != uninterrupted %x", workers, got, want)
		}
		if got := engineFingerprint(restored); got != want {
			t.Errorf("workers=%d: restored fingerprint %x != uninterrupted %x", workers, got, want)
		}
		// The exact re-sweep must agree too: Refine's accumulation
		// order depends on slab slot order, which the checkpoint must
		// have preserved exactly.
		uninterrupted.Refine(2)
		restored.Refine(2)
		if a, b := engineFingerprint(uninterrupted), engineFingerprint(restored); a != b {
			t.Errorf("workers=%d: post-Refine fingerprints differ: %x vs %x", workers, a, b)
		}
		wantEst := uninterrupted.Estimates()
		gotEst := restored.Estimates()
		if len(wantEst) != len(gotEst) {
			t.Fatalf("workers=%d: %d estimates vs %d", workers, len(gotEst), len(wantEst))
		}
		for o, v := range wantEst {
			if gotEst[o] != v {
				t.Errorf("workers=%d: object %s = %q, uninterrupted says %q", workers, o, gotEst[o], v)
			}
		}
	}
}

// TestCheckpointRestartDeterminismAtEveryBoundary sweeps the cut
// point: wherever the restart happens, the final state is the same.
func TestCheckpointRestartDeterminismAtEveryBoundary(t *testing.T) {
	_, triples := streamInstance(t, 8)
	want := engineFingerprint(ingestEngine(t, triples, 2))
	for _, cut := range []int{0, 1, 2, 4, 6} {
		_, restored := checkpointAt(t, triples, 2, cut)
		if got := engineFingerprint(restored); got != want {
			t.Errorf("cut=%d batches: restored fingerprint %x != uninterrupted %x", cut, got, want)
		}
	}
}

// TestCheckpointRoundTripWithEvictionAndDecay drives the bounded-
// memory and decay paths — LRU links, free lists, evicted-mass
// accounting, per-epoch decay counters — through a checkpoint and
// verifies the restored engine is indistinguishable, both immediately
// and after further ingest and an exact re-sweep.
func TestCheckpointRoundTripWithEvictionAndDecay(t *testing.T) {
	_, triples := streamInstance(t, 9)
	opts := DefaultEngineOptions()
	opts.Shards = 3
	opts.Workers = 2
	opts.EpochLength = 128
	opts.MaxObjects = 60 // far below the ~500 live objects: heavy eviction
	opts.Decay = 0.99
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(triples) / 2
	for _, tr := range triples[:half] {
		e.Observe(tr[0], tr[1], tr[2])
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := engineFingerprint(e), engineFingerprint(r); a != b {
		t.Fatalf("immediate round-trip fingerprints differ: %x vs %x", a, b)
	}
	if a, b := e.Stats(), r.Stats(); a != b {
		t.Errorf("stats differ after restore: %+v vs %+v", a, b)
	}
	for _, tr := range triples[half:] {
		e.Observe(tr[0], tr[1], tr[2])
		r.Observe(tr[0], tr[1], tr[2])
	}
	if a, b := engineFingerprint(e), engineFingerprint(r); a != b {
		t.Fatalf("continued-ingest fingerprints differ: %x vs %x", a, b)
	}
	e.Refine(2)
	r.Refine(2)
	if a, b := engineFingerprint(e), engineFingerprint(r); a != b {
		t.Errorf("post-Refine fingerprints differ: %x vs %x", a, b)
	}
	if a, b := e.Stats(), r.Stats(); a != b {
		t.Errorf("stats diverged: %+v vs %+v", a, b)
	}
}

// smallCheckpoint builds a compact but non-trivial checkpoint for the
// failure-path tests.
func smallCheckpoint(t *testing.T) []byte {
	t.Helper()
	opts := DefaultEngineOptions()
	opts.Shards = 2
	opts.EpochLength = 8
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, triples := streamInstance(t, 5)
	for _, tr := range triples[:64] {
		e.Observe(tr[0], tr[1], tr[2])
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreTruncated: every strict prefix must fail with a
// truncation error and a nil engine — never a panic, never a
// partially-restored engine.
func TestRestoreTruncated(t *testing.T) {
	b := smallCheckpoint(t)
	for _, cut := range []int{0, 3, 7, len(b) / 4, len(b) / 2, len(b) - 5, len(b) - 1} {
		e, err := Restore(bytes.NewReader(b[:cut]))
		if e != nil {
			t.Fatalf("cut=%d: got a non-nil engine from a truncated checkpoint", cut)
		}
		if !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("cut=%d: err = %v, want wire.ErrTruncated", cut, err)
		}
	}
}

// TestRestoreChecksumMismatch flips footer and payload bytes; both
// must be rejected before an engine escapes.
func TestRestoreChecksumMismatch(t *testing.T) {
	b := smallCheckpoint(t)
	foot := append([]byte(nil), b...)
	foot[len(foot)-1] ^= 0x01
	if e, err := Restore(bytes.NewReader(foot)); e != nil || !errors.Is(err, wire.ErrChecksum) {
		t.Errorf("flipped footer: engine=%v err=%v, want nil + ErrChecksum", e != nil, err)
	}
	// A flipped payload byte must also never produce an engine; the
	// exact error depends on what the byte was (a float bit lands in
	// ErrChecksum, a length or id field may fail structurally first).
	for _, off := range []int{len(b) / 3, len(b) / 2, 2 * len(b) / 3} {
		mid := append([]byte(nil), b...)
		mid[off] ^= 0x40
		if e, err := Restore(bytes.NewReader(mid)); e != nil || err == nil {
			t.Errorf("flipped payload byte %d: engine=%v err=%v, want nil + error", off, e != nil, err)
		}
	}
}

// TestRestoreVersionSkew patches the version field: a checkpoint from
// a future format must be refused up front.
func TestRestoreVersionSkew(t *testing.T) {
	b := smallCheckpoint(t)
	b[4] ^= 0x08 // version is the LE uint32 right after the 4-byte magic
	e, err := Restore(bytes.NewReader(b))
	if e != nil || !errors.Is(err, wire.ErrVersion) {
		t.Errorf("engine=%v err=%v, want nil + wire.ErrVersion", e != nil, err)
	}
	b[4] ^= 0x08
	b[0] = 'X' // and a non-checkpoint stream fails on magic
	if e, err := Restore(bytes.NewReader(b)); e != nil || !errors.Is(err, wire.ErrMagic) {
		t.Errorf("engine=%v err=%v, want nil + wire.ErrMagic", e != nil, err)
	}
}

// TestRestoreShardCountMismatch crafts structurally valid wire
// streams whose shard records disagree with their own header.
func TestRestoreShardCountMismatch(t *testing.T) {
	header := func(w *wire.Writer, shards int) {
		opts := DefaultEngineOptions()
		opts.Shards = shards
		opts.EpochLength = 8
		encodeOptions(w, opts)
		w.Int64(0) // nObs
		w.Int64(0) // sinceEp
		w.Strings(nil)
		w.Float64s(nil)
		w.Float64s(nil)
		w.Float64s(nil)
		w.Float64s(nil)
		w.Int64(0) // source epoch
		w.Strings(nil)
	}
	// Header says 2 shards, record section says 3.
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, checkpointMagic, checkpointVersion)
	header(w, 2)
	w.Uint32(3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err := Restore(bytes.NewReader(buf.Bytes())); e != nil || !errors.Is(err, ErrShardCount) {
		t.Errorf("count skew: engine=%v err=%v, want nil + ErrShardCount", e != nil, err)
	}
	// Matching counts but a record tagged with the wrong shard index.
	buf.Reset()
	w = wire.NewWriter(&buf, checkpointMagic, checkpointVersion)
	header(w, 1)
	w.Uint32(1) // one shard record follows...
	w.Uint32(7) // ...tagged as shard 7
	w.Uint32(0) // no objects
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err := Restore(bytes.NewReader(buf.Bytes())); e != nil || !errors.Is(err, ErrShardCount) {
		t.Errorf("tag skew: engine=%v err=%v, want nil + ErrShardCount", e != nil, err)
	}
}

// TestRestoreStructuralCorruption covers ErrCorrupt: bytes that parse
// and checksum... no — these fail before the checksum, on structural
// invariants (ragged tables, dangling ids never reach the engine).
func TestRestoreStructuralCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, checkpointMagic, checkpointVersion)
	opts := DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = 8
	encodeOptions(w, opts)
	w.Int64(0)
	w.Int64(0)
	w.Strings([]string{"src-a"}) // one source name...
	w.Float64s(nil)              // ...but empty stats vectors
	w.Float64s(nil)
	w.Float64s(nil)
	w.Float64s(nil)
	w.Int64(0)
	w.Strings(nil)
	w.Uint32(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err := Restore(bytes.NewReader(buf.Bytes())); e != nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("ragged source table: engine=%v err=%v, want nil + ErrCorrupt", e != nil, err)
	}

	restore := func(name string, ckpt []byte) {
		t.Helper()
		if e, err := Restore(bytes.NewReader(ckpt)); e != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: engine=%v err=%v, want nil + ErrCorrupt", name, e != nil, err)
		}
	}
	home := ShardIndex("obj", 2)
	if _, err := Restore(bytes.NewReader(tinyCheckpoint(t, []string{"a"}, []string{"x"}, 2, home, 1))); err != nil {
		t.Fatalf("well-formed hand-written checkpoint: %v", err)
	}
	// A live claim referencing a source the shard's per-source vectors
	// do not cover would panic in the next drain; Restore must refuse.
	restore("uncovered claim source", tinyCheckpoint(t, []string{"a"}, []string{"x"}, 2, home, 0))
	// Duplicate names would intern two ids for one source (or value):
	// Sources() would list it twice and new claims would land on one.
	restore("duplicate source name", tinyCheckpoint(t, []string{"a", "a"}, []string{"x"}, 2, home, 1))
	restore("duplicate value name", tinyCheckpoint(t, []string{"a"}, []string{"x", "x"}, 2, home, 1))
	// An object outside its routed shard is unreachable by name: the
	// next Observe would create a second copy in the right shard.
	restore("object in the wrong shard", tinyCheckpoint(t, []string{"a"}, []string{"x"}, 2, 1-home, 1))
	// The learner-config block holds the values every writer has
	// recorded; a learner that would take 25 SGD steps per refresh is
	// not one this binary can continue.
	if _, err := Restore(bytes.NewReader(learnerCheckpoint(t, 24))); err != nil {
		t.Fatalf("well-formed hand-written learner checkpoint: %v", err)
	}
	restore("learner Steps slot 25", learnerCheckpoint(t, 25))
}

// tinyCheckpoint hand-writes a current-version checkpoint of nShards
// shards holding one live object, "obj", in shard objShard, with one
// claim by source 0 for value 0. tracked is the length of that
// shard's per-source vectors (1 covers the claim).
func tinyCheckpoint(t *testing.T, srcNames, valNames []string, nShards, objShard, tracked int) []byte {
	return handCheckpoint(t, srcNames, valNames, nShards, objShard, tracked, 0)
}

// learnerCheckpoint hand-writes tinyCheckpoint's two-shard state with
// an online learner whose config block records steps SGD steps per
// refresh.
func learnerCheckpoint(t *testing.T, steps int) []byte {
	home := ShardIndex("obj", 2)
	return handCheckpoint(t, []string{"a"}, []string{"x"}, 2, home, 1, steps)
}

// handCheckpoint writes tinyCheckpoint's state; learnSteps > 0 adds an
// untrained online learner (no features) whose config block records
// learnSteps in its Steps slot.
func handCheckpoint(t *testing.T, srcNames, valNames []string, nShards, objShard, tracked, learnSteps int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, checkpointMagic, checkpointVersion)
	opts := DefaultEngineOptions()
	opts.Shards = nShards
	opts.EpochLength = 8
	opts.DedupWindow = 8
	if learnSteps > 0 {
		w.Float64(opts.InitAccuracy)
		w.Float64(opts.PriorStrength)
		w.Float64(opts.Decay)
		w.Int(opts.Shards)
		w.Int(opts.Workers)
		w.Int(opts.EpochLength)
		w.Int(opts.MaxObjects)
		w.Int(opts.DedupWindow)
		w.Bool(true) // OnlineLearn
		w.Float64(opts.InitAccuracy)
		w.Float64(4) // learner PriorStrength
		w.Int(0)     // window length
		w.Int(learnSteps)
		w.Int(16) // Batch
		w.Float64(0.3)
		w.Float64(0.01)
		w.Float64(1e-3)
		w.Bool(true) // Intercept
		w.Int64(1)   // Seed
		w.Uint32(0)  // feature rows
	} else {
		encodeOptions(w, opts)
	}
	w.Int64(1) // observations
	w.Int64(1) // since epoch
	n := len(srcNames)
	w.Strings(srcNames)
	w.Float64s(make([]float64, n)) // agree
	w.Float64s(make([]float64, n)) // total
	w.Float64s(slices.Repeat([]float64{0.5}, n))
	w.Float64s(make([]float64, n)) // sigma
	w.Int64(0)
	w.Strings(valNames)
	w.Uint32(uint32(nShards))
	for s := 0; s < nShards; s++ {
		w.Uint32(uint32(s))
		k := 0 // per-source vector length
		if s != objShard {
			w.Uint32(0)
			w.Ints(nil)
			w.Ints(nil)
			w.Int(-1)
			w.Int(-1)
		} else {
			w.Uint32(1)
			w.Bool(true)
			w.String("obj")
			w.Int64(0) // epoch
			w.Int64(0) // changed
			w.Int(-1)  // prev
			w.Int(-1)  // next
			w.Bool(false)
			w.Uint32(1) // one claim...
			w.Uint32(0) // ...by source 0
			w.Uint32(0) // ...for value 0
			w.Float64(0)
			w.Int32s([]int32{0})
			w.Int32s([]int32{1})
			w.Float64s([]float64{0.5})
			w.Float64s([]float64{1})
			w.Ints(nil) // free list
			w.Ints(nil) // dirty list
			w.Int(0)    // lruHead
			w.Int(0)    // lruTail
			k = tracked
		}
		w.Float64s(make([]float64, k)) // deltaAgree
		w.Float64s(make([]float64, k))
		w.Int64s(make([]int64, k))
		w.Float64s(make([]float64, k))
		w.Float64s(make([]float64, k))
		w.Int64(0)
		w.Int64(0)
		w.Float64(0)
	}
	if learnSteps > 0 {
		n := len(srcNames)
		w.Strings(nil) // feature labels
		w.Float64s([]float64{mathx.Logit(opts.InitAccuracy)})
		w.Uint32(uint32(n))
		for range n {
			w.Int32s(nil)
		}
		w.Uint32(0) // ring slots
		w.Int(0)    // ring position
		w.Float64s(make([]float64, n))
		w.Float64s(make([]float64, n))
		w.Int64(0) // epochs
		w.Int64(0) // step
	}
	w.Strings(nil) // dedup window
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreLyingFeatureCount: a feature-row count backed by no rows
// must fail after allocating in proportion to the bytes present.
// Sizing the feature map by the declared count reserved hundreds of
// megabytes here (gigabytes at the 2^28 cap) before the checksum was
// read.
func TestRestoreLyingFeatureCount(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, checkpointMagic, checkpointVersion)
	w.Float64(0.7) // InitAccuracy
	w.Float64(1)   // PriorStrength
	w.Float64(1)   // Decay
	w.Int(1)       // Shards
	w.Int(1)       // Workers
	w.Int(8)       // EpochLength
	w.Int(0)       // MaxObjects
	w.Int(8)       // DedupWindow
	w.Bool(true)   // OnlineLearn
	online.EncodeConfig(w, 0.7)
	w.Uint32(1 << 22) // feature rows declared, none delivered
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := Restore(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if e != nil || err == nil {
		t.Fatalf("engine=%v err=%v, want nil + an error", e != nil, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
		t.Errorf("Restore allocated %d MB for a %d-byte checkpoint", n>>20, buf.Len())
	}
}

// TestCheckpointFileRoundTrip exercises the atomic file helpers.
func TestCheckpointFileRoundTrip(t *testing.T) {
	_, triples := streamInstance(t, 6)
	e := ingestEngine(t, triples[:1400], 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.ckpt")
	if err := e.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "engine.ckpt" {
		t.Errorf("dir has %d entries: %v", len(entries), entries)
	}
	r, err := RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := engineFingerprint(e), engineFingerprint(r); a != b {
		t.Errorf("file round-trip fingerprints differ: %x vs %x", a, b)
	}
	if _, err := RestoreFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("restoring a missing file should fail")
	}
}

// TestWriteCheckpointConcurrentWithIngest proves the copy-on-read
// claim under the race detector: checkpoints taken while another
// goroutine ingests must be internally consistent (they restore
// cleanly), and the ingesting engine must be unaffected.
func TestWriteCheckpointConcurrentWithIngest(t *testing.T) {
	_, triples := streamInstance(t, 4)
	opts := DefaultEngineOptions()
	opts.Shards = 4
	opts.EpochLength = 64
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tr := range triples {
			e.Observe(tr[0], tr[1], tr[2])
		}
	}()
	var last bytes.Buffer
	for i := 0; i < 8; i++ {
		last.Reset()
		if err := e.WriteCheckpoint(&last); err != nil {
			t.Errorf("concurrent checkpoint %d: %v", i, err)
		}
	}
	wg.Wait()
	if _, err := Restore(bytes.NewReader(last.Bytes())); err != nil {
		t.Errorf("checkpoint taken during ingest does not restore: %v", err)
	}
	// And a final quiescent checkpoint round-trips exactly.
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := engineFingerprint(e), engineFingerprint(r); a != b {
		t.Errorf("quiescent round-trip fingerprints differ: %x vs %x", a, b)
	}
}

// multiBlockCheckpoint is a real checkpoint several wire read-ahead
// blocks long, and the engine it was written from.
func multiBlockCheckpoint(t *testing.T) ([]byte, *Engine) {
	t.Helper()
	_, triples := streamInstance(t, 12)
	e := ingestEngine(t, triples, 1)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), e
}

// TestRestoreCutAtBlockBoundaries cuts a real multi-block checkpoint
// at every offset within 8 bytes of each 64 KiB read-ahead boundary,
// where a primitive or a refill straddles the cut: Restore must fail
// with a truncation (or, where only the footer is short, checksum)
// error and a nil engine, never panic or succeed.
func TestRestoreCutAtBlockBoundaries(t *testing.T) {
	ckpt, _ := multiBlockCheckpoint(t)
	const block = 1 << 16
	if len(ckpt) < 2*block {
		t.Fatalf("checkpoint is %d bytes, want at least two blocks", len(ckpt))
	}
	for b := block; b < len(ckpt); b += block {
		for cut := b - 8; cut <= b+8 && cut < len(ckpt); cut++ {
			e, err := Restore(bytes.NewReader(ckpt[:cut]))
			if e != nil || !(errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrChecksum)) {
				t.Errorf("cut at %d: engine=%v err=%v, want nil + ErrTruncated", cut, e != nil, err)
			}
		}
	}
}

// TestRestoreAllocsPerLiveObject pins what a warm restart allocates:
// per live object, its name and its claim, domain, refs, score and
// posterior slabs, plus its share of the shard index and the tables.
// The wire decoder's own scratch must not show up per value decoded.
func TestRestoreAllocsPerLiveObject(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ckpt, e := multiBlockCheckpoint(t)
	live := e.Stats().Objects
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Restore(bytes.NewReader(ckpt)); err != nil {
			t.Fatal(err)
		}
	})
	const maxPerObject = 7.0 // measured 6.31 on this checkpoint
	if per := allocs / float64(live); per > maxPerObject {
		t.Errorf("Restore makes %.2f allocations per live object (%v for %d), want <= %v",
			per, allocs, live, maxPerObject)
	}
}
