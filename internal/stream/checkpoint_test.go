package stream

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"slimfast/internal/mathx"
	"slimfast/internal/online"
	"slimfast/internal/wire"
)

// restoreBytes restores the checkpoint b holds.
func restoreBytes(b []byte) (*Engine, error) {
	return Restore(bytes.NewReader(b), int64(len(b)))
}

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
	r, err := restoreBytes(buf.Bytes())
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
	checkRowCache(t, e, "after eviction and slot reuse")
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := restoreBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := engineFingerprint(e), engineFingerprint(r); a != b {
		t.Fatalf("immediate round-trip fingerprints differ: %x vs %x", a, b)
	}
	checkRowCache(t, r, "after Restore")
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
	checkRowCache(t, e, "after Refine")
	checkRowCache(t, r, "after Refine of the restored engine")
	if a, b := e.Stats(), r.Stats(); a != b {
		t.Errorf("stats diverged: %+v vs %+v", a, b)
	}
}

// TestGoldenCheckpointBytes pins the SHA-256 of the checkpoint a
// featureless two-shard engine writes after LRU eviction, epoch
// refreshes, three marked sequence keys and one Refine. The options
// block, the shard records with their eviction accounting and the
// dedup ring are all part of the hash, so the bytes a restoring
// binary reads stay what every writer has written.
func TestGoldenCheckpointBytes(t *testing.T) {
	const want = "529e7d7604cc94601e059f453b418fe5f70b0e5b56fe965b120fd1c98d222fc4"
	e := goldenCheckpointEngine(t)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("checkpoint SHA-256 = %s, want %s", got, want)
	}
}

// goldenCheckpointEngine is the engine TestGoldenCheckpointBytes pins.
func goldenCheckpointEngine(t *testing.T) *Engine {
	t.Helper()
	_, triples := streamInstance(t, 9)
	opts := DefaultEngineOptions()
	opts.Shards = 2
	opts.EpochLength = 128
	opts.MaxObjects = 60
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples {
		e.Observe(tr[0], tr[1], tr[2])
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		e.MarkSeq(k)
	}
	if st := e.Stats(); st.EvictedObjects == 0 || st.Epoch == 0 {
		t.Fatalf("stream did not evict and refresh: %+v", st)
	}
	e.Refine(2)
	return e
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
		e, err := restoreBytes(b[:cut])
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
	if e, err := restoreBytes(foot); e != nil || !errors.Is(err, wire.ErrChecksum) {
		t.Errorf("flipped footer: engine=%v err=%v, want nil + ErrChecksum", e != nil, err)
	}
	// A flipped payload byte must also never produce an engine; the
	// exact error depends on what the byte was (a float bit lands in
	// ErrChecksum, a length or id field may fail structurally first).
	for _, off := range []int{len(b) / 3, len(b) / 2, 2 * len(b) / 3} {
		mid := append([]byte(nil), b...)
		mid[off] ^= 0x40
		if e, err := restoreBytes(mid); e != nil || err == nil {
			t.Errorf("flipped payload byte %d: engine=%v err=%v, want nil + error", off, e != nil, err)
		}
	}
}

// TestRestoreVersionSkew patches the version field: a checkpoint from
// a future format must be refused up front.
func TestRestoreVersionSkew(t *testing.T) {
	b := smallCheckpoint(t)
	b[4] ^= 0x08 // version is the LE uint32 right after the 4-byte magic
	e, err := restoreBytes(b)
	if e != nil || !errors.Is(err, wire.ErrVersion) {
		t.Errorf("engine=%v err=%v, want nil + wire.ErrVersion", e != nil, err)
	}
	b[4] ^= 0x08
	b[0] = 'X' // and a non-checkpoint stream fails on magic
	if e, err := restoreBytes(b); e != nil || !errors.Is(err, wire.ErrMagic) {
		t.Errorf("engine=%v err=%v, want nil + wire.ErrMagic", e != nil, err)
	}
}

// TestRestoreRejectsOldVersions: Restore reads the version this
// binary writes and v4. Each v1–v3 file here is a well-formed
// checkpoint of its format, which earlier binaries restored; it must
// fail on its header with wire.ErrVersion, while the same engine in v4
// and in v5 restores.
func TestRestoreRejectsOldVersions(t *testing.T) {
	for _, v := range []uint32{checkpointV4, checkpointVersion} {
		ckpt := emptyCheckpoint(t, v, InitAccuracy, PriorStrength, DedupWindow)
		if _, err := restoreBytes(ckpt); err != nil {
			t.Fatalf("v%d empty checkpoint: %v", v, err)
		}
	}
	for v := uint32(1); v < checkpointV4; v++ {
		ckpt := emptyCheckpoint(t, v, InitAccuracy, PriorStrength, DedupWindow)
		if e, err := restoreBytes(ckpt); e != nil || !errors.Is(err, wire.ErrVersion) {
			t.Errorf("v%d: engine=%v err=%v, want nil + wire.ErrVersion", v, e != nil, err)
		}
	}
}

// TestRestoreRejectsOtherOptionSlots: every file a binary wrote holds
// this package's constants in the InitAccuracy, PriorStrength and
// DedupWindow slots, so a file with any other value is corrupt.
func TestRestoreRejectsOtherOptionSlots(t *testing.T) {
	for _, tc := range []struct {
		name        string
		init, prior float64
		window      int
	}{
		{"InitAccuracy 0.6", 0.6, PriorStrength, DedupWindow},
		{"InitAccuracy NaN", math.NaN(), PriorStrength, DedupWindow},
		{"PriorStrength 5", InitAccuracy, 5, DedupWindow},
		{"DedupWindow 8", InitAccuracy, PriorStrength, 8},
	} {
		ckpt := emptyCheckpoint(t, checkpointVersion, tc.init, tc.prior, tc.window)
		if e, err := restoreBytes(ckpt); e != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: engine=%v err=%v, want nil + ErrCorrupt", tc.name, e != nil, err)
		}
	}
}

// emptyCheckpoint hand-writes a checkpoint of a one-shard engine with
// no sources, values or objects in format version, with the given
// values in the options block's InitAccuracy, PriorStrength and
// DedupWindow slots. v1 has no DedupWindow slot, online switch or
// dedup ring; v2 adds the switch, v3 the slot and the ring. With no
// live objects, a v3 body is a v4 body, and v5 splits it into
// sections.
func emptyCheckpoint(t *testing.T, version uint32, initAccuracy, prior float64, window int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, checkpointMagic, version)
	w.Float64(initAccuracy)
	w.Float64(prior)
	w.Float64(1) // Decay
	w.Int(1)     // Shards
	w.Int(0)     // Workers
	w.Int(8)     // EpochLength
	w.Int(0)     // MaxObjects
	if version >= 3 {
		w.Int(window)
	}
	if version >= 2 {
		w.Bool(false) // OnlineLearn
	}
	w.Int64(0) // observations
	w.Int64(0) // since epoch
	w.Strings(nil)
	w.Float64s(nil)
	w.Float64s(nil)
	w.Float64s(nil)
	w.Float64s(nil)
	w.Int64(0) // source epoch
	w.Strings(nil)
	w.Uint32(1) // one shard record
	if version >= 5 {
		w.Section()
	}
	w.Uint32(0) // tag
	w.Uint32(0) // no objects
	w.Ints(nil)
	w.Ints(nil)
	w.Int(-1)
	w.Int(-1)
	w.Float64s(nil)
	w.Float64s(nil)
	w.Int64s(nil)
	w.Float64s(nil)
	w.Float64s(nil)
	w.Int64(0)
	w.Int64(0)
	w.Float64(0)
	if version >= 5 {
		w.Section()
	}
	if version >= 3 {
		w.Strings(nil) // dedup window
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	w.Section()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err := restoreBytes(buf.Bytes()); e != nil || !errors.Is(err, ErrShardCount) {
		t.Errorf("count skew: engine=%v err=%v, want nil + ErrShardCount", e != nil, err)
	}
	// Matching counts but a record tagged with the wrong shard index.
	buf.Reset()
	w = wire.NewWriter(&buf, checkpointMagic, checkpointVersion)
	header(w, 1)
	w.Uint32(1) // one shard record follows...
	w.Section()
	w.Uint32(7) // ...tagged as shard 7
	w.Uint32(0) // no objects
	w.Section()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err := restoreBytes(buf.Bytes()); e != nil || !errors.Is(err, ErrShardCount) {
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
	w.Section()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err := restoreBytes(buf.Bytes()); e != nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("ragged source table: engine=%v err=%v, want nil + ErrCorrupt", e != nil, err)
	}

	restore := func(name string, ckpt []byte) {
		t.Helper()
		if e, err := restoreBytes(ckpt); e != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: engine=%v err=%v, want nil + ErrCorrupt", name, e != nil, err)
		}
	}
	home := ShardIndex("obj", 2)
	if _, err := restoreBytes(tinyCheckpoint(t, []string{"a"}, []string{"x"}, 2, home, 1)); err != nil {
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
	if _, err := restoreBytes(learnerCheckpoint(t, 24)); err != nil {
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
	if learnSteps > 0 {
		w.Float64(InitAccuracy)
		w.Float64(PriorStrength)
		w.Float64(opts.Decay)
		w.Int(opts.Shards)
		w.Int(opts.Workers)
		w.Int(opts.EpochLength)
		w.Int(opts.MaxObjects)
		w.Int(DedupWindow)
		w.Bool(true) // OnlineLearn
		w.Float64(InitAccuracy)
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
		w.Section()
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
	w.Section()
	if learnSteps > 0 {
		n := len(srcNames)
		w.Strings(nil) // feature labels
		w.Float64s([]float64{mathx.Logit(InitAccuracy)})
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
// read. The options and learner config hold what this binary writes,
// so the decode gets past their checks (which fail with ErrCorrupt)
// and fails in the feature rows, on the bytes that are not there.
func TestRestoreLyingFeatureCount(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, checkpointMagic, checkpointVersion)
	w.Float64(InitAccuracy)
	w.Float64(PriorStrength)
	w.Float64(1) // Decay
	w.Int(1)     // Shards
	w.Int(1)     // Workers
	w.Int(8)     // EpochLength
	w.Int(0)     // MaxObjects
	w.Int(DedupWindow)
	w.Bool(true) // OnlineLearn
	online.EncodeConfig(w)
	w.Uint32(1 << 22) // feature rows declared, none delivered
	w.Section()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := restoreBytes(buf.Bytes())
	runtime.ReadMemStats(&after)
	if e != nil || !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("engine=%v err=%v, want nil + wire.ErrTruncated from the feature rows", e != nil, err)
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
	if _, err := restoreBytes(last.Bytes()); err != nil {
		t.Errorf("checkpoint taken during ingest does not restore: %v", err)
	}
	// And a final quiescent checkpoint round-trips exactly.
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := restoreBytes(buf.Bytes())
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
			e, err := restoreBytes(ckpt[:cut])
			if e != nil || !(errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrChecksum)) {
				t.Errorf("cut at %d: engine=%v err=%v, want nil + ErrTruncated", cut, e != nil, err)
			}
		}
	}
}

// TestRestoreAllocsPerLiveObject pins what a warm restart allocates:
// per shard, the slot chunks and their one exact copy, the object
// index, and the blocks every live object's name, claims, domain
// (values and refs in one block), scores and posterior are carved
// from; per engine, the tables. Nothing is allocated per object, so
// the count per live object is a fraction that falls as shards fill.
// The wire decoder's own scratch must not show up per value decoded.
func TestRestoreAllocsPerLiveObject(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ckpt, e := multiBlockCheckpoint(t)
	live := e.Stats().Objects
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := restoreBytes(ckpt); err != nil {
			t.Fatal(err)
		}
	})
	const maxPerObject = 0.5 // measured 0.39 on this checkpoint
	if per := allocs / float64(live); per > maxPerObject {
		t.Errorf("Restore makes %.2f allocations per live object (%v for %d), want <= %v",
			per, allocs, live, maxPerObject)
	}
}

// lyingShardCheckpoint hand-writes a one-shard checkpoint holding one
// live object, "obj", with one claim by source 0 for value 0. With lie
// empty it is well formed. Otherwise the count lie names — in the
// source table ("sources", "agree"), in the shard record ("slots",
// "name", "claims", "domain", "refs", "scores", "post") or in the
// shard's vectors ("free", "deltaAgree", "obsCount") — declares 2^28-1
// entries, and only eight zero bytes and the section ends follow it.
func lyingShardCheckpoint(t *testing.T, lie string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf, checkpointMagic, checkpointVersion)
	opts := DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = 8
	encodeOptions(w, opts)
	w.Int64(1) // observations
	w.Int64(1) // since epoch
	steps := []struct {
		count string // the count the step writes: "" none, "section" a section end
		n     uint32
		body  func()
	}{
		{"sources", 1, func() { w.String("a") }},
		{"agree", 1, func() { w.Float64(0) }},
		{"", 0, func() {
			w.Float64s([]float64{0}) // total
			w.Float64s([]float64{0.5})
			w.Float64s([]float64{0}) // sigma
			w.Int64(0)
			w.Strings([]string{"x"})
			w.Uint32(1) // shard records
		}},
		{"section", 0, nil},
		{"", 0, func() { w.Uint32(0) }}, // shard tag
		{"slots", 1, func() { w.Bool(true) }},
		{"name", 3, func() {
			for _, c := range []byte("obj") {
				w.Uint8(c)
			}
			w.Int64(0)    // epoch
			w.Int64(0)    // changed
			w.Int(-1)     // prev
			w.Int(-1)     // next
			w.Bool(false) // dirty
		}},
		{"claims", 1, func() { w.Uint32(0); w.Uint32(0); w.Float64(0) }},
		{"domain", 1, func() { w.Uint32(0) }},
		{"refs", 1, func() { w.Uint32(1) }},
		{"scores", 1, func() { w.Float64(0.5) }},
		{"post", 1, func() { w.Float64(1) }},
		{"free", 0, func() {}},
		{"", 0, func() {
			w.Ints(nil) // dirty list
			w.Int(0)    // lruHead
			w.Int(0)    // lruTail
		}},
		{"deltaAgree", 1, func() { w.Float64(0) }},
		{"", 0, func() { w.Float64s([]float64{0}) }},
		{"obsCount", 1, func() { w.Int64(0) }},
		{"", 0, func() {
			w.Float64s([]float64{0})
			w.Float64s([]float64{0})
			w.Int64(0)
			w.Int64(0)
			w.Float64(0)
		}},
		{"section", 0, nil},
		{"", 0, func() { w.Strings(nil) }}, // dedup window
	}
	lied := false
	for _, st := range steps {
		switch {
		case st.count == "section":
			w.Section()
		case lied:
		case st.count != "" && st.count == lie:
			w.Uint32(1<<28 - 1)
			w.Uint64(0)
			lied = true
		default:
			if st.count != "" {
				w.Uint32(st.n)
			}
			st.body()
		}
	}
	if lie != "" && !lied {
		t.Fatalf("no count named %q", lie)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreLyingCountsStayBounded: a count in the source table, a
// shard record or a shard's vectors that declares 2^28-1 entries and
// delivers eight bytes must fail with
// wire.ErrTruncated, having allocated at most 64 bytes per input byte
// beyond what restoring the honest checkpoint of the same shape does.
// Decoding grows slots, names, arrays and the wire decoders' tables
// as their bytes arrive, so the excess tracks the input, never the
// declared count's gigabytes.
func TestRestoreLyingCountsStayBounded(t *testing.T) {
	// allocated is the least TotalAlloc growth of three restores, so an
	// allocation elsewhere in the process cannot fail the bound.
	allocated := func(ckpt []byte) (least uint64, err error) {
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var e *Engine
			e, err = restoreBytes(ckpt)
			runtime.ReadMemStats(&after)
			if e != nil && err != nil {
				t.Fatalf("Restore returned an engine and %v", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
				least = n
			}
		}
		return least, err
	}
	honest := lyingShardCheckpoint(t, "")
	base, err := allocated(honest)
	if err != nil {
		t.Fatalf("well-formed hand-written checkpoint: %v", err)
	}
	for _, lie := range []string{"sources", "agree", "slots", "name", "claims", "domain", "refs", "scores", "post",
		"free", "deltaAgree", "obsCount"} {
		ckpt := lyingShardCheckpoint(t, lie)
		n, err := allocated(ckpt)
		if !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("lying %s count: err = %v, want wire.ErrTruncated", lie, err)
		}
		if n > base+64*uint64(len(ckpt)) {
			t.Errorf("lying %s count: Restore allocated %d bytes for a %d-byte checkpoint; the honest one took %d",
				lie, n, len(ckpt), base)
		}
	}
}

// TestRestoredWindowsDoNotAlias: right after Restore every live
// object's arrays are windows exactly their length, and no two share
// memory, so the engine's appends copy out of the block instead of
// writing over a neighbour. A new source then claims a new value for
// every object, across epoch refreshes that rebuild every score slab
// from the claims: each slot must match the never-stopped engine's bit
// for bit, and so must the fingerprint.
func TestRestoredWindowsDoNotAlias(t *testing.T) {
	_, triples := streamInstance(t, 12)
	opts := DefaultEngineOptions()
	opts.Shards = 2
	opts.EpochLength = 64
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples {
		e.Observe(tr[0], tr[1], tr[2])
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := restoreBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ lo, hi uintptr }
	var spans []span
	add := func(p unsafe.Pointer, n, c int, size uintptr) error {
		if c != n {
			return fmt.Errorf("window holds %d, has room for %d", n, c)
		}
		if c > 0 {
			spans = append(spans, span{uintptr(p), uintptr(p) + uintptr(c)*size})
		}
		return nil
	}
	var names []string
	for s := range r.shards {
		for ix := range r.shards[s].objs {
			o := &r.shards[s].objs[ix]
			if !o.live {
				continue
			}
			names = append(names, o.name)
			for _, err := range []error{
				add(unsafe.Pointer(unsafe.SliceData(o.claims)), len(o.claims), cap(o.claims), unsafe.Sizeof(claim{})),
				add(unsafe.Pointer(unsafe.SliceData(o.domain)), len(o.domain), cap(o.domain), unsafe.Sizeof(domEntry{})),
				add(unsafe.Pointer(unsafe.SliceData(o.scores)), len(o.scores), cap(o.scores), 8),
				add(unsafe.Pointer(unsafe.SliceData(o.post)), len(o.post), cap(o.post), 8),
			} {
				if err != nil {
					t.Fatalf("shard %d slot %d (%q): %v", s, ix, o.name, err)
				}
			}
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("restored arrays overlap: [%#x, %#x) and [%#x, %#x)",
				spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		e.Observe("fresh-source", name, "fresh-value")
		r.Observe("fresh-source", name, "fresh-value")
	}
	for s := range e.shards {
		for ix := range e.shards[s].objs {
			if err := sameObject(&r.shards[s].objs[ix], &e.shards[s].objs[ix]); err != nil {
				t.Fatalf("shard %d slot %d after new claims: %v", s, ix, err)
			}
		}
	}
	if a, b := engineFingerprint(e), engineFingerprint(r); a != b {
		t.Errorf("fingerprints differ after new claims: never stopped %x, restored %x", a, b)
	}
}

// exportBytes is the engine's estimates in scan order, confidences as
// their bit patterns: equal bytes mean an equal export.
func exportBytes(e *Engine) []byte {
	var b bytes.Buffer
	for est := range e.EstimatesSeq() {
		fmt.Fprintf(&b, "%s,%s,%016x\n", est.Object, est.Value, math.Float64bits(est.Confidence))
	}
	return b.Bytes()
}

// TestRestoreWorkersIdentical: two engines fed one stream that differ
// only in Workers (1 and 4) write checkpoints that differ only in the
// main section, where the Workers slot is. The first restores its
// shard sections one after another and the second concurrently, to
// equal fingerprints and equal export bytes, and both continue bit for
// bit like the engine that never stopped.
func TestRestoreWorkersIdentical(t *testing.T) {
	_, triples := streamInstance(t, 7)
	half := len(triples) / 2
	finish := func(e *Engine) {
		for _, tr := range triples[half:] {
			e.Observe(tr[0], tr[1], tr[2])
		}
	}
	never := ingestEngine(t, triples[:half], 1)
	finish(never)
	var ckpts [][]byte
	var restored []*Engine
	for _, workers := range []int{1, 4} {
		e := ingestEngine(t, triples[:half], workers)
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := restoreBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ckpts = append(ckpts, buf.Bytes())
		restored = append(restored, r)
	}
	secs, err := wire.Sections(bytes.NewReader(ckpts[0]), int64(len(ckpts[0])), checkpointMagic)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 6 {
		t.Fatalf("%d sections, want main, 4 shards and the tail", len(secs))
	}
	mainEnd := secs[0].Off + secs[0].Len
	if len(ckpts[0]) != len(ckpts[1]) || !bytes.Equal(ckpts[0][mainEnd:], ckpts[1][mainEnd:]) {
		t.Fatal("the Workers 1 and 4 checkpoints differ past the main section")
	}
	if a, b := engineFingerprint(restored[0]), engineFingerprint(restored[1]); a != b {
		t.Errorf("restored fingerprints differ: Workers 1 %x, Workers 4 %x", a, b)
	}
	if !bytes.Equal(exportBytes(restored[0]), exportBytes(restored[1])) {
		t.Error("restored exports differ between Workers 1 and 4")
	}
	want := engineFingerprint(never)
	for i, r := range restored {
		finish(r)
		if got := engineFingerprint(r); got != want {
			t.Errorf("restore %d continued to %x, the never-stopped engine to %x", i, got, want)
		}
	}
}

// TestRestoreReportsLowestDamagedSection damages the checksum footers
// of shard sections 1 and 3 of a four-shard checkpoint whose Workers 4
// decode them concurrently: every restore must fail with shard 1's
// checksum error, whichever worker finishes first.
func TestRestoreReportsLowestDamagedSection(t *testing.T) {
	_, triples := streamInstance(t, 7)
	e := ingestEngine(t, triples, 4)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ckpt := buf.Bytes()
	secs, err := wire.Sections(bytes.NewReader(ckpt), int64(len(ckpt)), checkpointMagic)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range []int{1, 3} {
		sec := secs[1+shard]
		ckpt[sec.Off+sec.Len-1] ^= 0x01 // the section's CRC-32C footer
	}
	for i := 0; i < 20; i++ {
		e, err := restoreBytes(ckpt)
		if e != nil || !errors.Is(err, wire.ErrChecksum) || !strings.Contains(err.Error(), "shard 1 section") {
			t.Fatalf("restore %d: engine=%v err=%v, want nil and shard 1's checksum error", i, e != nil, err)
		}
	}
}

// TestRestoreV4Upgrade: the files under testdata/v4 are the v4
// checkpoints the last v4 build wrote of the engines
// TestGoldenCheckpointBytes and TestGoldenOnlineCheckpointBytes build
// (the SHA-256 those tests pinned for v4). Each restores through the
// v4 reader to the fingerprint and export of the engine rebuilt here,
// and its v5 re-checkpoint is that engine's v5 checkpoint byte for
// byte and restores to the same fingerprint.
func TestRestoreV4Upgrade(t *testing.T) {
	for _, tc := range []struct {
		file, sha string
		build     func(*testing.T) *Engine
	}{
		{"golden.ckpt", "77b0320e9bc378f0f11de84438617694f71d99c31fe857288d9010359d18809e", goldenCheckpointEngine},
		{"golden-online.ckpt", "076fbea833f7bce3e916726cb71e6fec02dd23ee6c5b28b9c50b6f97ed239b07", goldenOnlineEngine},
	} {
		v4, err := os.ReadFile(filepath.Join("testdata", "v4", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(v4)); got != tc.sha {
			t.Fatalf("%s: SHA-256 %s, want the v4 pin %s", tc.file, got, tc.sha)
		}
		if v, err := wire.Version(bytes.NewReader(v4), checkpointMagic); err != nil || v != checkpointV4 {
			t.Fatalf("%s: version %d, %v", tc.file, v, err)
		}
		want := tc.build(t)
		old, err := restoreBytes(v4)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if a, b := engineFingerprint(old), engineFingerprint(want); a != b {
			t.Errorf("%s: v4 restore fingerprint %x, engine %x", tc.file, a, b)
		}
		if !bytes.Equal(exportBytes(old), exportBytes(want)) {
			t.Errorf("%s: v4 restore exports differently", tc.file)
		}
		var re, fresh bytes.Buffer
		if err := old.WriteCheckpoint(&re); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteCheckpoint(&fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), fresh.Bytes()) {
			t.Errorf("%s: the v5 re-checkpoint differs from the engine's own", tc.file)
		}
		// v5 adds a footer per section past the first and the table.
		n := old.NumShards() + 2
		if got, want := re.Len()-len(v4), 4*(n-1)+16*n+12; got != want {
			t.Errorf("%s: v5 is %d bytes longer than v4, want %d", tc.file, got, want)
		}
		r, err := restoreBytes(re.Bytes())
		if err != nil {
			t.Fatalf("%s: v5 re-checkpoint: %v", tc.file, err)
		}
		if a, b := engineFingerprint(r), engineFingerprint(want); a != b {
			t.Errorf("%s: v5 re-checkpoint restores to %x, engine %x", tc.file, a, b)
		}
	}
}
