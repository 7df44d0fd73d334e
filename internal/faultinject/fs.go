package faultinject

import (
	"fmt"
	"io/fs"
	"os"
	"sync"
	"syscall"
	"time"
)

// FS is the filesystem seam shared by the cloud store/journal and the phone
// OfflineQueue: exactly the operations those layers perform, so a faulty
// implementation can be slotted under either without touching their logic.
// OSFS is the production implementation.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	WriteFile(name string, data []byte, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
}

// SyncFS is the optional durability extension of FS: WriteFileSync flushes
// the file's bytes to stable storage (fsync) before returning, so a
// subsequent rename can never commit a document whose bytes are still only
// in the page cache. Consumers type-assert for it and fall back to
// WriteFile, so FS implementations that predate it keep working.
type SyncFS interface {
	WriteFileSync(name string, data []byte, perm fs.FileMode) error
}

// OSFS is the real operating-system filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OSFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OSFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                   { return os.Remove(name) }
func (OSFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OSFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// WriteFileSync writes the file and fsyncs it before closing, implementing
// SyncFS for the journal's fsync-then-rename commit protocol.
func (OSFS) WriteFileSync(name string, data []byte, perm fs.FileMode) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FSConfig configures a FaultyFS. The zero value injects nothing.
type FSConfig struct {
	// Seed pins the fault schedule: two injectors with the same seed and
	// the same call sequence inject identical faults.
	Seed int64
	// WriteErrRate fails WriteFile before any byte reaches the disk.
	WriteErrRate float64
	// ShortWriteRate makes WriteFile leave a truncated file behind and
	// report an error — the torn write a crash or full disk produces.
	ShortWriteRate float64
	// ENOSPCRate fails WriteFile/Rename with an error wrapping
	// syscall.ENOSPC — the full disk that degrades a journal without
	// corrupting it. Removes still succeed (deleting frees space).
	ENOSPCRate float64
	// RenameErrRate fails Rename, stranding a temp file beside its target.
	RenameErrRate float64
	// ReadErrRate fails ReadFile.
	ReadErrRate float64
	// DelayRate and Delay stall any operation — the slow sync of a worn
	// SD card. Delays do not consume the fault budget.
	DelayRate float64
	Delay     time.Duration
	// MaxFaults bounds injected errors (0 = no bound); once spent the
	// filesystem behaves normally, so retry loops terminate.
	MaxFaults int
}

// FaultyFS wraps an FS with seeded failures.
type FaultyFS struct {
	inner FS
	cfg   FSConfig
	src   *source
	// delays draws from its own source so enabling latency does not shift
	// the error schedule.
	delays *source
	// Sticky disk conditions, toggled by tests mid-run. Unlike the seeded
	// rates they consume no randomness and no fault budget: a full or
	// read-only volume fails every write until it is healed, which is
	// exactly the persistence the degraded-mode machinery must survive.
	stickyMu sync.Mutex
	diskFull bool
	readOnly bool
}

// NewFS wraps inner (nil = the real filesystem) with the configured faults.
func NewFS(inner FS, cfg FSConfig) *FaultyFS {
	if inner == nil {
		inner = OSFS{}
	}
	return &FaultyFS{
		inner:  inner,
		cfg:    cfg,
		src:    newSource(cfg.Seed, cfg.MaxFaults),
		delays: newSource(cfg.Seed+0x2545F491, 0),
	}
}

// Faults returns how many errors have been injected so far.
func (f *FaultyFS) Faults() int { return f.src.count() }

// SetDiskFull toggles the sticky out-of-space condition: while set, every
// WriteFile/WriteFileSync/Rename fails with a wrapped syscall.ENOSPC.
// Remove still succeeds — deleting frees space on a full disk.
func (f *FaultyFS) SetDiskFull(full bool) {
	f.stickyMu.Lock()
	f.diskFull = full
	f.stickyMu.Unlock()
}

// SetReadOnly toggles the sticky read-only-remount condition: while set,
// every mutation (MkdirAll, WriteFile, WriteFileSync, Rename, Remove) fails
// with a wrapped syscall.EROFS. Reads keep working.
func (f *FaultyFS) SetReadOnly(ro bool) {
	f.stickyMu.Lock()
	f.readOnly = ro
	f.stickyMu.Unlock()
}

// stickyErr reports the sticky disk condition applying to one mutation, or
// nil. remove-only operations escape disk-full but not read-only.
func (f *FaultyFS) stickyErr(op, name string, isRemove bool) error {
	f.stickyMu.Lock()
	defer f.stickyMu.Unlock()
	if f.readOnly {
		return fmt.Errorf("%w: %s %s: %w", ErrInjected, op, name, syscall.EROFS)
	}
	if f.diskFull && !isRemove {
		return fmt.Errorf("%w: %s %s: %w", ErrInjected, op, name, syscall.ENOSPC)
	}
	return nil
}

func (f *FaultyFS) delay() {
	if f.cfg.Delay > 0 && f.delays.hit(f.cfg.DelayRate) {
		time.Sleep(f.cfg.Delay)
	}
}

func (f *FaultyFS) MkdirAll(path string, perm fs.FileMode) error {
	f.delay()
	f.stickyMu.Lock()
	ro := f.readOnly
	f.stickyMu.Unlock()
	if ro {
		return fmt.Errorf("%w: mkdir %s: %w", ErrInjected, path, syscall.EROFS)
	}
	return f.inner.MkdirAll(path, perm)
}

// writeFault draws the per-write fault decision shared by WriteFile and
// WriteFileSync. A non-nil error means the write failed (a short write has
// already left its torn file behind).
func (f *FaultyFS) writeFault(name string, data []byte, perm fs.FileMode) error {
	if err := f.stickyErr("write", name, false); err != nil {
		return err
	}
	if f.src.hit(f.cfg.WriteErrRate) {
		return fmt.Errorf("%w: write %s", ErrInjected, name)
	}
	if len(data) > 1 && f.src.hit(f.cfg.ShortWriteRate) {
		// Leave the torn file in place — recovery code must cope with it.
		_ = f.inner.WriteFile(name, data[:1+f.src.intn(len(data)-1)], perm)
		return fmt.Errorf("%w: short write %s", ErrInjected, name)
	}
	if f.src.hit(f.cfg.ENOSPCRate) {
		return fmt.Errorf("%w: write %s: %w", ErrInjected, name, syscall.ENOSPC)
	}
	return nil
}

func (f *FaultyFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	f.delay()
	if err := f.writeFault(name, data, perm); err != nil {
		return err
	}
	return f.inner.WriteFile(name, data, perm)
}

// WriteFileSync implements SyncFS with the same fault schedule as WriteFile,
// delegating to the inner filesystem's sync write when it has one.
func (f *FaultyFS) WriteFileSync(name string, data []byte, perm fs.FileMode) error {
	f.delay()
	if err := f.writeFault(name, data, perm); err != nil {
		return err
	}
	if sf, ok := f.inner.(SyncFS); ok {
		return sf.WriteFileSync(name, data, perm)
	}
	return f.inner.WriteFile(name, data, perm)
}

func (f *FaultyFS) Rename(oldpath, newpath string) error {
	f.delay()
	if err := f.stickyErr("rename", oldpath, false); err != nil {
		return err
	}
	if f.src.hit(f.cfg.RenameErrRate) {
		return fmt.Errorf("%w: rename %s", ErrInjected, oldpath)
	}
	if f.src.hit(f.cfg.ENOSPCRate) {
		return fmt.Errorf("%w: rename %s: %w", ErrInjected, oldpath, syscall.ENOSPC)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultyFS) Remove(name string) error {
	f.delay()
	if err := f.stickyErr("remove", name, true); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultyFS) ReadFile(name string) ([]byte, error) {
	f.delay()
	if f.src.hit(f.cfg.ReadErrRate) {
		return nil, fmt.Errorf("%w: read %s", ErrInjected, name)
	}
	return f.inner.ReadFile(name)
}

func (f *FaultyFS) ReadDir(name string) ([]os.DirEntry, error) {
	f.delay()
	return f.inner.ReadDir(name)
}
