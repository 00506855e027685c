package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzCheckpoint builds a small valid checkpoint to seed the corpus.
func fuzzCheckpoint() []byte {
	opts := DefaultEngineOptions()
	opts.Shards = 2
	opts.EpochLength = 16
	e, err := NewEngine(opts)
	if err != nil {
		panic(err)
	}
	e.Observe("s1", "o1", "a")
	e.Observe("s2", "o1", "b")
	e.Observe("s1", "o2", "a")
	e.MarkSeq("seed-batch-0")
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzRestore feeds arbitrary bytes to the checkpoint decoder: it
// must never panic or over-allocate, and anything it does accept must
// be a live engine whose re-checkpoint round-trips.
func FuzzRestore(f *testing.F) {
	seed := fuzzCheckpoint()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped) // checksum breaker
	f.Add([]byte("SFCK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := restoreBytes(data)
		if err != nil {
			return
		}
		// Whatever decoded must function: stats, estimates, and a
		// re-checkpoint that itself restores.
		_ = e.Stats()
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("restored engine cannot re-checkpoint: %v", err)
		}
		if _, err := restoreBytes(buf.Bytes()); err != nil {
			t.Fatalf("re-checkpoint does not restore: %v", err)
		}
	})
}

// TestFuzzRestoreCorpusFaults pins the check each committed FuzzRestore
// input reaches, so a format change that stops one earlier (at the
// header or an options slot) fails here instead of silently shrinking
// what the corpus exercises. Every file in the corpus must be listed.
func TestFuzzRestoreCorpusFaults(t *testing.T) {
	want := map[string]string{ // file -> substring of the restore error; "" restores
		"seed-valid-v6":    "",
		"seed-truncated":   "truncated stream",
		"seed-bitflip":     "checksum mismatch",
		"ccf736f0bf393563": "options record InitAccuracy NaN",
		"7bd830c667ff7114": "feature table",
		"cbd828c92fea3951": "feature table",
		// v5, through the read shim: the container's own checks, then a
		// section's checksum.
		"seed-valid-v5":          "",
		"seed-truncated-v5":      "does not end in a section table",
		"seed-bitflip-v5":        "shard 0 section: wire: checksum mismatch",
		"seed-table-past-end-v5": "section 1 spans [215, 1294), past the section table",
		"seed-table-checksum-v5": "section table: wire: checksum mismatch",
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzRestore", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("corpus has %d files, the table lists %d", len(files), len(want))
	}
	for _, path := range files {
		name := filepath.Base(path)
		fault, ok := want[name]
		if !ok {
			t.Errorf("corpus file %s is not listed", name)
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(strings.TrimSpace(lit), ")")
		data, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s is not a one-[]byte corpus file: %v", name, err)
		}
		_, err = restoreBytes([]byte(data))
		switch {
		case fault == "" && err != nil:
			t.Errorf("%s: %v, want a restored engine", name, err)
		case fault != "" && (err == nil || !strings.Contains(err.Error(), fault)):
			t.Errorf("%s: err = %v, want one naming %q", name, err, fault)
		}
	}
}
