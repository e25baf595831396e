package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"sensorcal/internal/store/wal"
)

// ErrPowerCut is returned by every operation on a PowerCutFS after the
// simulated machine has lost power. The store layer must treat it like
// any other I/O error: the mutation was not acknowledged.
var ErrPowerCut = errors.New("chaos: power cut")

// errShortWrite is the injected partial write: some prefix of the bytes
// reached the page cache, the rest did not, and the caller got an error.
var errShortWrite = errors.New("chaos: short write")

// errFsync is the injected fsync failure: the kernel refused to promise
// durability; the dirty pages are still dirty.
var errFsync = errors.New("chaos: fsync error")

// PowerCutFS wraps a real wal.FS with the failure model of a machine
// whose power can be cut at any byte. It is the proof harness for the
// WAL's durability discipline (internal/store/wal/fs.go):
//
//   - written bytes are buffered in memory (the "page cache") and reach
//     the real filesystem only on Sync — which is also when the WAL
//     acknowledges them;
//   - a crash flushes a random prefix of each open file's unsynced
//     buffer (the torn write) and discards the rest;
//   - files created — and removals and renames performed — since the
//     last directory fsync are rolled back at a crash: a directory
//     entry is just data, and unsynced data does not survive;
//   - ShortWriteRate and FsyncErrorRate inject the two transient error
//     paths (partial write, failed fsync) whose cleanup the WAL's
//     dirty-tail repair exists for;
//   - CrashAfterBytes arms a byte budget: the power dies mid-write once
//     that many bytes have been attempted, after which every operation
//     returns ErrPowerCut.
//
// After a crash the on-disk state is exactly what a reboot would find,
// so a test reopens the directory with the plain OS filesystem and
// asserts recovery.
//
// The model is deliberately pessimistic about visibility: unsynced
// bytes are invisible to OpenRead/Size until Sync, whereas a real page
// cache shows them to readers. The WAL never reads its own unsynced
// bytes (every acknowledged append is fsynced first), so the
// divergence is unobservable — and pessimism here only makes the test
// stricter.
//
// All randomness is drawn from one seeded source under the mutex: the
// same seed replays the same tear schedule.
type PowerCutFS struct {
	// Inner is the real filesystem holding the synced state.
	Inner wal.FS
	// ShortWriteRate is the probability a Write persists only a random
	// prefix to the buffer and returns an error.
	ShortWriteRate float64
	// FsyncErrorRate is the probability a Sync (file or directory) fails,
	// leaving the buffer unflushed.
	FsyncErrorRate float64

	mu      sync.Mutex
	rng     *rand.Rand
	crashed bool
	budget  int64 // bytes until auto-crash; <0 disarmed
	armed   bool

	open map[string]*powerFile
	// pendingCreates: created since the last SyncDir of their directory —
	// the entry itself is not durable and vanishes at a crash.
	pendingCreates map[string]struct{}
	// pendingRemoves: removed but not dir-synced — the entry comes back
	// at a crash, with the bytes it had.
	pendingRemoves map[string][]byte
	// pendingRenames: renamed but not dir-synced — reverted at a crash
	// (backup holds an overwritten destination, nil if there was none).
	pendingRenames []pendingRename

	writes  int64 // bytes attempted through Write
	crashes int
}

type pendingRename struct {
	oldpath, newpath string
	backup           []byte // pre-rename contents of newpath, nil if absent
}

// NewPowerCutFS wraps inner with a seeded power-cut model. The crash
// budget starts disarmed; call ArmCrash.
func NewPowerCutFS(inner wal.FS, seed int64) *PowerCutFS {
	if inner == nil {
		inner = wal.OS{}
	}
	return &PowerCutFS{
		Inner:          inner,
		rng:            rand.New(rand.NewSource(seed)),
		budget:         -1,
		open:           make(map[string]*powerFile),
		pendingCreates: make(map[string]struct{}),
		pendingRemoves: make(map[string][]byte),
	}
}

// ArmCrash sets the byte budget: after n more attempted written bytes,
// the power dies mid-write.
func (p *PowerCutFS) ArmCrash(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.budget = n
	p.armed = true
}

// Crashed reports whether the power has been cut.
func (p *PowerCutFS) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// Stats reports attempted write bytes and crashes fired.
func (p *PowerCutFS) Stats() (writeBytes int64, crashes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writes, p.crashes
}

// Crash cuts the power now: each open file's unsynced buffer is torn at
// a random byte (the prefix reaches disk, the rest never happened), and
// directory operations since the last directory fsync are rolled back.
func (p *PowerCutFS) Crash() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashLocked()
}

func (p *PowerCutFS) crashLocked() {
	if p.crashed {
		return
	}
	p.crashed = true
	p.crashes++
	// Tear every open file: a random prefix of its dirty pages lands.
	for _, f := range p.open {
		if len(f.buf) > 0 {
			tear := p.rng.Intn(len(f.buf) + 1)
			if tear > 0 {
				f.real.Write(f.buf[:tear])
			}
			f.buf = nil
		}
		f.real.Close()
		f.dead = true
	}
	// Entries created but never made durable vanish...
	for name := range p.pendingCreates {
		_ = p.Inner.Remove(name)
	}
	// ...removed-but-not-durable entries come back...
	for name, blob := range p.pendingRemoves {
		if f, err := p.Inner.Create(name); err == nil {
			f.Write(blob)
			f.Sync()
			f.Close()
		}
	}
	// ...and non-durable renames revert, newest first.
	for i := len(p.pendingRenames) - 1; i >= 0; i-- {
		r := p.pendingRenames[i]
		_ = p.Inner.Rename(r.newpath, r.oldpath)
		if r.backup != nil {
			if f, err := p.Inner.Create(r.newpath); err == nil {
				f.Write(r.backup)
				f.Sync()
				f.Close()
			}
		}
	}
	p.pendingCreates = make(map[string]struct{})
	p.pendingRemoves = make(map[string][]byte)
	p.pendingRenames = nil
}

// chargeLocked spends write budget and fires the crash when it runs
// out; it returns how many of n bytes were attempted before the lights
// went out.
func (p *PowerCutFS) chargeLocked(n int) (allowed int, cut bool) {
	p.writes += int64(n)
	if !p.armed || p.budget < 0 {
		return n, false
	}
	if int64(n) <= p.budget {
		p.budget -= int64(n)
		return n, false
	}
	allowed = int(p.budget)
	p.budget = -1
	return allowed, true
}

// powerFile is one open file: real handle plus the unsynced buffer.
type powerFile struct {
	p    *PowerCutFS
	name string
	real wal.File
	buf  []byte // written but not fsynced
	dead bool   // the crash closed it
}

func (f *powerFile) Write(b []byte) (int, error) {
	p := f.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed || f.dead {
		return 0, ErrPowerCut
	}
	allowed, cut := p.chargeLocked(len(b))
	if cut {
		// The power dies mid-write: a random prefix of what was attempted
		// is in the page cache when it does.
		if allowed > 0 {
			allowed = p.rng.Intn(allowed + 1)
		}
		f.buf = append(f.buf, b[:allowed]...)
		p.crashLocked()
		return allowed, ErrPowerCut
	}
	if p.ShortWriteRate > 0 && p.rng.Float64() < p.ShortWriteRate {
		n := p.rng.Intn(len(b) + 1)
		f.buf = append(f.buf, b[:n]...)
		return n, errShortWrite
	}
	f.buf = append(f.buf, b...)
	return len(b), nil
}

func (f *powerFile) Sync() error {
	p := f.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed || f.dead {
		return ErrPowerCut
	}
	if p.FsyncErrorRate > 0 && p.rng.Float64() < p.FsyncErrorRate {
		return errFsync // pages stay dirty; a later Sync may still flush them
	}
	if len(f.buf) > 0 {
		if _, err := f.real.Write(f.buf); err != nil {
			return err
		}
		f.buf = f.buf[:0]
	}
	return f.real.Sync()
}

func (f *powerFile) Close() error {
	p := f.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.dead {
		return nil
	}
	delete(p.open, f.name)
	if p.crashed {
		return nil
	}
	// No crash happened while the pages were dirty, so writeback
	// eventually landed them; flush without promising durability.
	if len(f.buf) > 0 {
		f.real.Write(f.buf)
		f.buf = nil
	}
	return f.real.Close()
}

// --- wal.FS ---

func (p *PowerCutFS) OpenRead(name string) (io.ReadCloser, error) {
	p.mu.Lock()
	crashed := p.crashed
	p.mu.Unlock()
	if crashed {
		return nil, ErrPowerCut
	}
	return p.Inner.OpenRead(name)
}

func (p *PowerCutFS) Create(name string) (wal.File, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return nil, ErrPowerCut
	}
	real, err := p.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	if _, wasRemoved := p.pendingRemoves[name]; wasRemoved {
		// Remove-then-recreate before any dir sync: the crash outcome is
		// the recreated (possibly torn) file, not the removed one.
		delete(p.pendingRemoves, name)
	}
	p.pendingCreates[name] = struct{}{}
	f := &powerFile{p: p, name: name, real: real}
	p.open[name] = f
	return f, nil
}

func (p *PowerCutFS) OpenAppend(name string) (wal.File, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return nil, ErrPowerCut
	}
	real, err := p.Inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	f := &powerFile{p: p, name: name, real: real}
	p.open[name] = f
	return f, nil
}

func (p *PowerCutFS) Remove(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return ErrPowerCut
	}
	if _, created := p.pendingCreates[name]; created {
		// Created and removed inside one non-durable window: the pair
		// cancels; a crash sees neither.
		delete(p.pendingCreates, name)
		return p.Inner.Remove(name)
	}
	blob, err := readAll(p.Inner, name)
	if err != nil {
		return err
	}
	if err := p.Inner.Remove(name); err != nil {
		return err
	}
	p.pendingRemoves[name] = blob
	return nil
}

func (p *PowerCutFS) Rename(oldpath, newpath string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return ErrPowerCut
	}
	var backup []byte
	if _, err := p.Inner.Size(newpath); err == nil {
		if blob, err := readAll(p.Inner, newpath); err == nil {
			backup = blob
		}
	}
	if err := p.Inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	if _, created := p.pendingCreates[oldpath]; created {
		// The source entry was never durable; after the rename it is the
		// destination entry that is not durable.
		delete(p.pendingCreates, oldpath)
		p.pendingCreates[newpath] = struct{}{}
		return nil
	}
	p.pendingRenames = append(p.pendingRenames, pendingRename{oldpath: oldpath, newpath: newpath, backup: backup})
	return nil
}

func (p *PowerCutFS) Truncate(name string, size int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return ErrPowerCut
	}
	if f, ok := p.open[name]; ok {
		// The cut point is at or before the synced length in every WAL
		// repair; buffered bytes sit past it, so they are gone either way.
		f.buf = nil
	}
	return p.Inner.Truncate(name, size)
}

func (p *PowerCutFS) SyncDir(dir string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return ErrPowerCut
	}
	if p.FsyncErrorRate > 0 && p.rng.Float64() < p.FsyncErrorRate {
		return errFsync
	}
	if err := p.Inner.SyncDir(dir); err != nil {
		return err
	}
	// Every directory mutation so far is durable. (One directory in
	// practice — the WAL dir — so no per-dir bookkeeping.)
	p.pendingCreates = make(map[string]struct{})
	p.pendingRemoves = make(map[string][]byte)
	p.pendingRenames = nil
	return nil
}

func (p *PowerCutFS) ReadDir(dir string) ([]string, error) {
	p.mu.Lock()
	crashed := p.crashed
	p.mu.Unlock()
	if crashed {
		return nil, ErrPowerCut
	}
	return p.Inner.ReadDir(dir)
}

func (p *PowerCutFS) MkdirAll(dir string) error {
	p.mu.Lock()
	crashed := p.crashed
	p.mu.Unlock()
	if crashed {
		return ErrPowerCut
	}
	return p.Inner.MkdirAll(dir)
}

func (p *PowerCutFS) Size(name string) (int64, error) {
	p.mu.Lock()
	crashed := p.crashed
	p.mu.Unlock()
	if crashed {
		return 0, ErrPowerCut
	}
	return p.Inner.Size(name)
}

// readAll slurps a file through the wrapped FS (for remove/rename
// rollback snapshots).
func readAll(fs wal.FS, name string) ([]byte, error) {
	rc, err := fs.OpenRead(name)
	if err != nil {
		return nil, fmt.Errorf("chaos: snapshotting %s for rollback: %w", name, err)
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
