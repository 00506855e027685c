package resilience

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sync"
	"syscall"
)

// This file is the fault-injection layer the durability tests drive:
// an io.Writer shim that tears, truncates or flips bytes at an exact
// offset, and a filesystem seam the checkpoint store writes through,
// so tests can make "the disk lied" deterministic — every injected
// fault must end in "recovered to the last good generation,
// bit-exact", never a corrupted engine.

// ErrInjected marks a failure produced by a fault shim, so tests can
// assert the error they provoked is the error they saw.
var ErrInjected = errors.New("resilience: injected fault")

// FaultMode selects what a FaultWriter does when the fault offset is
// reached.
type FaultMode int

const (
	// TearAt silently drops every byte from the fault offset on while
	// reporting success — the classic torn write: the writer (and its
	// fsync) believe the bytes landed, the file at rest is truncated.
	TearAt FaultMode = iota
	// FailAt returns an ENOSPC-wrapped ErrInjected at the fault offset,
	// persisting only the bytes before it — a full disk mid-write.
	FailAt
	// FlipAt XOR-flips the low bit of the byte at the fault offset and
	// keeps writing normally — silent media corruption.
	FlipAt
)

// FaultWriter wraps an io.Writer and injects one fault at byte offset
// Off per the Mode. Offsets are absolute across all Writes.
type FaultWriter struct {
	W    io.Writer
	Mode FaultMode
	Off  int64

	n int64 // bytes seen so far
}

// Write implements io.Writer with the configured fault.
func (f *FaultWriter) Write(p []byte) (int, error) {
	start := f.n
	f.n += int64(len(p))
	switch f.Mode {
	case TearAt:
		if start >= f.Off {
			return len(p), nil // claim success, persist nothing
		}
		if f.n > f.Off {
			keep := int(f.Off - start)
			if _, err := f.W.Write(p[:keep]); err != nil {
				return 0, err
			}
			return len(p), nil
		}
		return f.W.Write(p)
	case FailAt:
		if start >= f.Off {
			return 0, &os.PathError{Op: "write", Path: "fault", Err: errors.Join(ErrInjected, syscall.ENOSPC)}
		}
		if f.n > f.Off {
			keep := int(f.Off - start)
			if n, err := f.W.Write(p[:keep]); err != nil {
				return n, err
			}
			return int(f.Off - start), &os.PathError{Op: "write", Path: "fault", Err: errors.Join(ErrInjected, syscall.ENOSPC)}
		}
		return f.W.Write(p)
	case FlipAt:
		if start <= f.Off && f.Off < f.n {
			q := append([]byte(nil), p...)
			q[f.Off-start] ^= 1
			return f.W.Write(q)
		}
		return f.W.Write(p)
	default:
		return f.W.Write(p)
	}
}

// FS is the filesystem seam the checkpoint store writes and restores
// through. The production implementation is OS; tests substitute a
// FaultFS to inject write failures without touching real disks'
// behavior.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Open(name string) (ReadableFile, error)
	// SyncDir best-effort-fsyncs a directory so renames survive power
	// loss; refusals (FUSE, overlay mounts) are ignored by callers.
	SyncDir(dir string) error
}

// File is the writable handle FS hands out.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// ReadableFile is the readable handle FS hands out: read at any
// offset, sized by Stat, so a reader can decode parts of it in
// parallel.
type ReadableFile interface {
	io.ReaderAt
	io.Closer
	Stat() (fs.FileInfo, error)
}

// OS is the passthrough FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Open(name string) (ReadableFile, error)       { return os.Open(name) }
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// FaultFS wraps an FS and arms faults against the files it creates.
// Arm installs a FaultWriter spec for the next created file (one
// shot); ArmRename makes the next Rename fail. The zero wrap passes
// everything through.
type FaultFS struct {
	Inner FS

	mu         sync.Mutex
	nextWrite  *FaultWriter // template: Mode+Off applied to next CreateTemp
	failRename bool
	failCreate bool
}

// NewFaultFS wraps inner (nil selects OS).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{Inner: inner}
}

// Arm installs a one-shot write fault applied to the next file
// created through the FS.
func (f *FaultFS) Arm(mode FaultMode, off int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextWrite = &FaultWriter{Mode: mode, Off: off}
}

// ArmRenameFailure makes the next Rename fail with ErrInjected.
func (f *FaultFS) ArmRenameFailure() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRename = true
}

// ArmCreateFailure makes the next CreateTemp fail with ErrInjected
// (a directory that stopped accepting files — quota, read-only
// remount).
func (f *FaultFS) ArmCreateFailure() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failCreate = true
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	f.mu.Lock()
	fw := f.nextWrite
	f.nextWrite = nil
	fc := f.failCreate
	f.failCreate = false
	f.mu.Unlock()
	if fc {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: errors.Join(ErrInjected, syscall.ENOSPC)}
	}
	file, err := f.Inner.CreateTemp(dir, pattern)
	if err != nil || fw == nil {
		return file, err
	}
	fw.W = file
	return &faultFile{File: file, w: fw}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	fr := f.failRename
	f.failRename = false
	f.mu.Unlock()
	if fr {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: ErrInjected}
	}
	return f.Inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error               { return f.Inner.Remove(name) }
func (f *FaultFS) Open(name string) (ReadableFile, error) { return f.Inner.Open(name) }
func (f *FaultFS) SyncDir(dir string) error               { return f.Inner.SyncDir(dir) }

// faultFile routes writes through the armed FaultWriter while keeping
// the underlying file's Sync/Close/Name.
type faultFile struct {
	File
	w *FaultWriter
}

func (f *faultFile) Write(p []byte) (int, error) { return f.w.Write(p) }
