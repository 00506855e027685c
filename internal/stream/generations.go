// Generation-rotated checkpointing: the durability layer that turns
// "the checkpoint" into "the last K good checkpoints". A
// CheckpointStore writes each checkpoint through a temp file + fsync
// + rename chain (so no crash can clobber an existing generation),
// rotates the previous generations down one slot, and restores by
// walking the generations newest-first past CRC, truncation and
// structural failures — a torn or bit-flipped newest generation costs
// one generation of progress, never the engine.
//
// All file traffic goes through a resilience.FS seam, so the fault
// tests can inject torn writes, ENOSPC and rename failures and prove
// every one of them ends in "recovered to the last good generation".
package stream

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"slimfast/internal/resilience"
)

// DefaultCheckpointKeep is how many checkpoint generations a store
// retains when the caller does not choose: the live one plus two
// fallbacks.
const DefaultCheckpointKeep = 3

// CheckpointStore manages a rotated family of checkpoint files:
// generation 0 lives at Path, generation i at Path.<i>, oldest last.
type CheckpointStore struct {
	path string
	keep int

	// FS is the filesystem seam (resilience.OS unless a test injects
	// faults); Log receives the loud warnings the fallback path emits.
	FS  resilience.FS
	Log io.Writer

	// Metrics is the optional instrumentation seam; the zero value is
	// a no-op.
	Metrics StoreMetrics
}

// countingWriter counts the bytes a checkpoint encode produces.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// NewCheckpointStore returns a store rotating keep generations at
// path (keep < 1 selects DefaultCheckpointKeep; keep == 1 keeps a
// single file, which is what WriteCheckpointFile writes).
func NewCheckpointStore(path string, keep int) *CheckpointStore {
	if keep < 1 {
		keep = DefaultCheckpointKeep
	}
	return &CheckpointStore{path: path, keep: keep, FS: resilience.OS, Log: io.Discard}
}

// Path returns the newest generation's path.
func (cs *CheckpointStore) Path() string { return cs.path }

// Keep returns how many generations the store retains.
func (cs *CheckpointStore) Keep() int { return cs.keep }

// GenPath returns generation i's path: Path for 0, Path.<i> beyond.
func (cs *CheckpointStore) GenPath(i int) string {
	if i == 0 {
		return cs.path
	}
	return fmt.Sprintf("%s.%d", cs.path, i)
}

// Write checkpoints e as the new generation 0, rotating existing
// generations down and pruning beyond keep. The bytes land in a
// same-directory temp file and are renamed into place only after a
// successful sync; on any failure the temp file is removed and every
// existing generation is left exactly as it was.
func (cs *CheckpointStore) Write(e *Engine) (err error) {
	began := time.Now()
	var written int64
	defer func() {
		if err != nil {
			cs.Metrics.WriteErrors.Inc()
			return
		}
		cs.Metrics.Writes.Inc()
		cs.Metrics.LastBytes.Set(float64(written))
		cs.Metrics.WriteSeconds.Observe(time.Since(began).Seconds())
	}()
	dir := filepath.Dir(cs.path)
	f, err := cs.FS.CreateTemp(dir, filepath.Base(cs.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			cs.FS.Remove(tmp)
		}
	}()
	cw := &countingWriter{w: f}
	if err = e.WriteCheckpoint(cw); err != nil {
		return err
	}
	written = cw.n
	if err = f.Sync(); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	// Rotate oldest-first so every rename moves a file into a slot
	// that has already been vacated (or is being discarded). Each
	// rename is atomic; a crash mid-rotation leaves a gap at worst,
	// which Restore walks past.
	for i := cs.keep - 1; i >= 1; i-- {
		switch rerr := cs.FS.Rename(cs.GenPath(i-1), cs.GenPath(i)); {
		case rerr == nil, errors.Is(rerr, os.ErrNotExist):
		default:
			return fmt.Errorf("stream: checkpoint: rotating generation %d: %w", i-1, rerr)
		}
	}
	if err = cs.FS.Rename(tmp, cs.path); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	// Sync the directory so the renames survive power loss
	// (best-effort: filesystems that refuse directory fsync still hold
	// valid, fully-synced files).
	cs.FS.SyncDir(dir)
	// Prune generations beyond keep (left over from a larger keep).
	for i := cs.keep; i < cs.keep+16; i++ {
		if rerr := cs.FS.Remove(cs.GenPath(i)); rerr != nil {
			break
		}
	}
	return nil
}

// Restore walks the generations newest-first and returns the first
// engine that decodes cleanly, together with the path it came from. A
// damaged generation — truncated, checksum-mismatched, structurally
// corrupt — is logged loudly and skipped; only when every existing
// generation is damaged does Restore fail. When no generation exists
// at all it returns an error wrapping os.ErrNotExist, so callers can
// keep the one-command cold/warm boot idiom.
func (cs *CheckpointStore) Restore() (*Engine, string, error) {
	var failures []error
	tried := 0
	for i := 0; i < cs.keep; i++ {
		p := cs.GenPath(i)
		rc, err := cs.FS.Open(p)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // gap from an interrupted rotation, or fewer generations than keep
			}
			tried++
			failures = append(failures, fmt.Errorf("%s: %w", p, err))
			continue
		}
		tried++
		e, err := restoreFile(rc)
		rc.Close()
		if err != nil {
			fmt.Fprintf(cs.Log, "# WARNING: checkpoint generation %s unreadable (%v); falling back to older generation\n", p, err)
			failures = append(failures, fmt.Errorf("%s: %w", p, err))
			continue
		}
		if len(failures) > 0 {
			fmt.Fprintf(cs.Log, "# WARNING: restored from fallback generation %s after %d damaged generation(s)\n", p, len(failures))
			cs.Metrics.Fallbacks.Inc()
		}
		cs.Metrics.Restores.Inc()
		return e, p, nil
	}
	if tried == 0 {
		return nil, "", fmt.Errorf("stream: restore: no checkpoint generations at %s: %w", cs.path, os.ErrNotExist)
	}
	return nil, "", fmt.Errorf("stream: restore: all %d checkpoint generation(s) damaged: %w", tried, errors.Join(failures...))
}
