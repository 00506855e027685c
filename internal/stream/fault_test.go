package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slimfast/internal/resilience"
)

// faultEngine builds a small engine with some ingested state.
func faultEngine(t *testing.T, n int) *Engine {
	t.Helper()
	opts := DefaultEngineOptions()
	opts.Shards = 2
	opts.EpochLength = 64
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, triples := streamInstance(t, 11)
	if n > len(triples) {
		n = len(triples)
	}
	for _, tr := range triples[:n] {
		e.Observe(tr[0], tr[1], tr[2])
	}
	return e
}

func TestCheckpointStoreRotation(t *testing.T) {
	dir := t.TempDir()
	cs := NewCheckpointStore(filepath.Join(dir, "eng.ckpt"), 3)
	e := faultEngine(t, 100)

	var gens [][]byte // bytes of each write, newest last
	for i := 0; i < 4; i++ {
		_, triples := streamInstance(t, 12)
		e.Observe(triples[i][0], triples[i][1], triples[i][2])
		if err := cs.Write(e); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		b, err := os.ReadFile(cs.GenPath(0))
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, b)
	}
	// keep=3: generations 0..2 exist, 3 does not; no temp droppings.
	for i := 0; i < 3; i++ {
		want := gens[len(gens)-1-i]
		got, err := os.ReadFile(cs.GenPath(i))
		if err != nil {
			t.Fatalf("generation %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("generation %d does not hold write %d's bytes", i, len(gens)-1-i)
		}
	}
	if _, err := os.Stat(cs.GenPath(3)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("generation 3 should have been pruned: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 3 {
		t.Errorf("dir holds %d entries, want exactly the 3 generations: %v", len(entries), entries)
	}
	// Restore returns the newest generation.
	r, used, err := cs.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if used != cs.GenPath(0) {
		t.Errorf("restored from %s, want generation 0", used)
	}
	if a, b := engineFingerprint(e), engineFingerprint(r); a != b {
		t.Errorf("restored fingerprint %x != live %x", b, a)
	}
}

// TestRestoreFallsBackPastTornWrite injects the classic lying-disk
// fault: the newest generation's write claims success but persists a
// prefix. Restore must recover the previous generation bit-exact.
func TestRestoreFallsBackPastTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := resilience.NewFaultFS(nil)
	cs := NewCheckpointStore(filepath.Join(dir, "eng.ckpt"), 3)
	cs.FS = ffs
	var log strings.Builder
	cs.Log = &log

	e := faultEngine(t, 200)
	if err := cs.Write(e); err != nil {
		t.Fatal(err)
	}
	goodFP := engineFingerprint(e)

	// More ingest, then a torn checkpoint write that "succeeds".
	_, triples := streamInstance(t, 13)
	for _, tr := range triples[:50] {
		e.Observe(tr[0], tr[1], tr[2])
	}
	ffs.Arm(resilience.TearAt, 128)
	if err := cs.Write(e); err != nil {
		t.Fatalf("torn write should have claimed success, got %v", err)
	}

	r, used, err := cs.Restore()
	if err != nil {
		t.Fatalf("restore should fall back past the torn generation: %v", err)
	}
	if used != cs.GenPath(1) {
		t.Errorf("restored from %s, want fallback generation 1", used)
	}
	if got := engineFingerprint(r); got != goodFP {
		t.Errorf("fallback engine fingerprint %x != last good checkpoint %x", got, goodFP)
	}
	if !strings.Contains(log.String(), "WARNING: checkpoint generation") ||
		!strings.Contains(log.String(), "falling back") {
		t.Errorf("fallback was not logged loudly:\n%s", log.String())
	}
}

// TestRestoreFallsBackPastBitFlip corrupts the newest generation at
// rest (silent media corruption) and proves generation-by-generation
// fallback plus bit-exact recovery.
func TestRestoreFallsBackPastBitFlip(t *testing.T) {
	dir := t.TempDir()
	cs := NewCheckpointStore(filepath.Join(dir, "eng.ckpt"), 2)
	cs.Log = io.Discard

	e := faultEngine(t, 150)
	if err := cs.Write(e); err != nil {
		t.Fatal(err)
	}
	goodFP := engineFingerprint(e)
	_, triples := streamInstance(t, 14)
	for _, tr := range triples[:30] {
		e.Observe(tr[0], tr[1], tr[2])
	}
	if err := cs.Write(e); err != nil {
		t.Fatal(err)
	}
	// Flip one byte mid-payload in generation 0.
	b, err := os.ReadFile(cs.GenPath(0))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(cs.GenPath(0), b, 0o644); err != nil {
		t.Fatal(err)
	}

	r, used, err := cs.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if used != cs.GenPath(1) {
		t.Errorf("restored from %s, want generation 1", used)
	}
	if got := engineFingerprint(r); got != goodFP {
		t.Errorf("fallback fingerprint %x != generation-1 state %x", got, goodFP)
	}
}

// TestCheckpointENOSPCLeavesGenerationsIntact: a full disk mid-write
// fails the checkpoint but must not damage any existing generation or
// leak temp files; once space returns, the next write succeeds.
func TestCheckpointENOSPCLeavesGenerationsIntact(t *testing.T) {
	dir := t.TempDir()
	ffs := resilience.NewFaultFS(nil)
	cs := NewCheckpointStore(filepath.Join(dir, "eng.ckpt"), 3)
	cs.FS = ffs

	e := faultEngine(t, 120)
	if err := cs.Write(e); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(cs.GenPath(0))
	if err != nil {
		t.Fatal(err)
	}

	ffs.Arm(resilience.FailAt, 64)
	if err := cs.Write(e); !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("ENOSPC write err = %v, want ErrInjected", err)
	}
	after, err := os.ReadFile(cs.GenPath(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed checkpoint modified the existing generation")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("failed write leaked files: %v", entries)
	}
	// Disk recovers; the store does too.
	if err := cs.Write(e); err != nil {
		t.Fatalf("post-ENOSPC write: %v", err)
	}
	if _, _, err := cs.Restore(); err != nil {
		t.Fatalf("restore after recovery: %v", err)
	}
}

// TestCheckpointCreateAndRenameFailures: the other write-path faults
// (can't create the temp file, can't rename it into place) fail
// cleanly without touching existing generations.
func TestCheckpointCreateAndRenameFailures(t *testing.T) {
	dir := t.TempDir()
	ffs := resilience.NewFaultFS(nil)
	cs := NewCheckpointStore(filepath.Join(dir, "eng.ckpt"), 2)
	cs.FS = ffs

	e := faultEngine(t, 80)
	if err := cs.Write(e); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(cs.GenPath(0))

	ffs.ArmCreateFailure()
	if err := cs.Write(e); !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("create-failure write err = %v", err)
	}
	ffs.ArmRenameFailure()
	if err := cs.Write(e); !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("rename-failure write err = %v", err)
	}
	after, _ := os.ReadFile(cs.GenPath(0))
	if !bytes.Equal(before, after) {
		t.Error("failed writes modified the live generation")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("failed writes leaked files: %v", entries)
	}
	if err := cs.Write(e); err != nil {
		t.Fatalf("recovery write: %v", err)
	}
}

// TestRestoreKillDuringCheckpoint simulates dying mid-checkpoint: a
// temp file exists (never renamed) alongside good generations.
// Restore must ignore it and recover generation 0.
func TestRestoreKillDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cs := NewCheckpointStore(filepath.Join(dir, "eng.ckpt"), 2)
	e := faultEngine(t, 90)
	if err := cs.Write(e); err != nil {
		t.Fatal(err)
	}
	fp := engineFingerprint(e)
	// The "kill": a half-written temp file left on disk.
	if err := os.WriteFile(filepath.Join(dir, "eng.ckpt.tmp12345"), []byte("SFCK\x03garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, used, err := cs.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if used != cs.GenPath(0) {
		t.Errorf("restored from %s, want generation 0", used)
	}
	if got := engineFingerprint(r); got != fp {
		t.Errorf("fingerprint %x != checkpointed %x", got, fp)
	}
}

// TestRestoreAllGenerationsDamaged: when every generation is corrupt
// the store fails with every failure enumerated — it must not
// fabricate an engine.
func TestRestoreAllGenerationsDamaged(t *testing.T) {
	dir := t.TempDir()
	cs := NewCheckpointStore(filepath.Join(dir, "eng.ckpt"), 2)
	cs.Log = io.Discard
	e := faultEngine(t, 60)
	for i := 0; i < 2; i++ {
		if err := cs.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(cs.GenPath(i), []byte("SFCKjunk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if eng, _, err := cs.Restore(); eng != nil || err == nil {
		t.Fatalf("engine=%v err=%v, want nil + error", eng != nil, err)
	} else if !strings.Contains(err.Error(), "all 2 checkpoint generation(s) damaged") {
		t.Errorf("err = %v, want all-generations-damaged", err)
	}

	// And with no generations at all: os.ErrNotExist for the
	// cold-boot-is-fine idiom.
	empty := NewCheckpointStore(filepath.Join(t.TempDir(), "none.ckpt"), 3)
	if _, _, err := empty.Restore(); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("empty store err = %v, want os.ErrNotExist", err)
	}
}

// TestRestoreToleratesRotationGap: a crash between rotation renames
// can leave generation 0 missing while generation 1 holds the last
// good state; Restore walks the gap.
func TestRestoreToleratesRotationGap(t *testing.T) {
	dir := t.TempDir()
	cs := NewCheckpointStore(filepath.Join(dir, "eng.ckpt"), 3)
	e := faultEngine(t, 70)
	if err := cs.Write(e); err != nil {
		t.Fatal(err)
	}
	fp := engineFingerprint(e)
	// Simulate the crash: gen0 was rotated up but the new gen0 never
	// landed.
	if err := os.Rename(cs.GenPath(0), cs.GenPath(1)); err != nil {
		t.Fatal(err)
	}
	r, used, err := cs.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if used != cs.GenPath(1) {
		t.Errorf("restored from %s, want generation 1", used)
	}
	if got := engineFingerprint(r); got != fp {
		t.Errorf("fingerprint %x != last good %x", got, fp)
	}
}

// TestMarkSeqWindow covers the dedup ring: replays inside the window
// dedupe, the window holds DedupWindow keys, and eviction is
// oldest-first.
func TestMarkSeqWindow(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.Shards = 1
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !e.MarkSeq("a") || !e.MarkSeq("b") || !e.MarkSeq("c") {
		t.Fatal("fresh keys must be new")
	}
	if e.MarkSeq("b") {
		t.Error("replayed key inside the window was not deduplicated")
	}
	if !e.SeqSeen("a") || e.SeqSeen("zz") {
		t.Error("SeqSeen misreports window membership")
	}
	// Fill the window: "a" stays until one more distinct key arrives.
	for i := 3; i < DedupWindow; i++ {
		if !e.MarkSeq(fmt.Sprintf("fill%d", i)) {
			t.Fatalf("fresh key fill%d rejected", i)
		}
	}
	if !e.SeqSeen("a") {
		t.Fatal("window evicted a key before it was full")
	}
	if !e.MarkSeq("d") {
		t.Fatal("new key rejected")
	}
	if e.SeqSeen("a") || !e.SeqSeen("b") {
		t.Error("window did not evict exactly the oldest key")
	}
	if !e.MarkSeq("a") {
		t.Error("evicted key must be ingestable again")
	}
	// Empty keys are never deduplicated.
	if !e.MarkSeq("") || !e.MarkSeq("") {
		t.Error("empty keys must always pass")
	}
	if got := e.seqSnapshot(); len(got) != DedupWindow {
		t.Errorf("window holds %d keys, cap is %d", len(got), DedupWindow)
	}
}

// TestSeqWindowSurvivesCheckpoint proves the exactly-once contract
// across restarts: keys marked before a checkpoint still dedupe after
// restore, in the same eviction order.
func TestSeqWindowSurvivesCheckpoint(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.Shards = 2
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, triples := streamInstance(t, 15)
	for _, tr := range triples[:40] {
		e.Observe(tr[0], tr[1], tr[2])
	}
	for _, k := range []string{"w", "x", "y", "z"} {
		e.MarkSeq(k)
	}
	for i := 4; i < DedupWindow; i++ { // fill the window
		e.MarkSeq(fmt.Sprintf("fill%d", i))
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := restoreBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"w", "x", "y", "z"} {
		if r.MarkSeq(k) {
			t.Errorf("key %q lost across checkpoint/restore", k)
		}
	}
	// Eviction order survived: one new key pushes out "w" only.
	r.MarkSeq("new1")
	if r.SeqSeen("w") || !r.SeqSeen("x") {
		t.Error("restored window's eviction order differs from the live one")
	}
}

// TestRetryStormEquivalentToSingleDelivery is the engine-level golden
// idempotency proof: delivering every batch once, versus delivering
// each batch 1 + k duplicated times (a retry storm), must produce
// bit-identical engines when ingest is guarded by MarkSeq.
func TestRetryStormEquivalentToSingleDelivery(t *testing.T) {
	_, triples := streamInstance(t, 16)
	const batchLen = 100
	build := func() *Engine {
		opts := DefaultEngineOptions()
		opts.Shards = 4
		opts.EpochLength = 128
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	deliver := func(e *Engine, i int, batch []Triple) {
		key := fmt.Sprintf("batch-%d", i)
		if e.MarkSeq(key) {
			e.ObserveBatch(batch)
		}
	}
	once := build()
	storm := build()
	for i := 0; i*batchLen < len(triples); i++ {
		lo := i * batchLen
		hi := min(lo+batchLen, len(triples))
		batch := make([]Triple, hi-lo)
		for j, tr := range triples[lo:hi] {
			batch[j] = Triple{tr[0], tr[1], tr[2]}
		}
		deliver(once, i, batch)
		// Retry storm: every batch delivered 1 + (i%3 + 1) times.
		for k := 0; k <= i%3+1; k++ {
			deliver(storm, i, batch)
		}
	}
	if a, b := engineFingerprint(once), engineFingerprint(storm); a != b {
		t.Fatalf("retry storm diverged from single delivery: %x vs %x", a, b)
	}
	if a, b := once.Stats(), storm.Stats(); a != b {
		t.Errorf("stats diverged: %+v vs %+v", a, b)
	}
}
