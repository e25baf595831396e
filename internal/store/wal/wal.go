package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Segment files are named wal-<seq>.seg with a fixed-width hex sequence
// number, so lexicographic directory order is append order.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
	// DefaultSegmentBytes is the roll threshold: big enough that rotation
	// cost is amortized over thousands of records, small enough that
	// compaction reclaims space promptly.
	DefaultSegmentBytes = 4 << 20
)

func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(hex, "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Options configures a WAL.
type Options struct {
	// SegmentBytes is the size at which the active segment rolls. Zero
	// means DefaultSegmentBytes.
	SegmentBytes int64
	// FS is the filesystem; nil means the real OS.
	FS FS
	// Metrics receives WAL instrumentation; nil means unmetered.
	Metrics *Metrics
}

// RecoveryStats reports what Open found on disk.
type RecoveryStats struct {
	// Segments present after recovery (sealed + active).
	Segments int
	// TornBytes truncated from the active segment's interrupted tail.
	TornBytes int64
}

// WAL is a crash-safe append-only segment log. It is safe for concurrent
// use; appends serialize on one mutex (the callers — epoch close,
// registration — are off the submit hot path by design).
type WAL struct {
	mu   sync.Mutex
	fs   FS
	dir  string
	opts Options
	m    *Metrics

	active     File   // open tail segment
	activeSeq  uint64 // its sequence number
	activeSize int64  // bytes of whole, synced frames in it
	sealed     []uint64
	dirty      bool // the tail holds garbage past activeSize (failed append)
	closed     bool

	recovery RecoveryStats
	buf      []byte // frame scratch, reused across appends
}

// OpenWAL opens (or creates) the segment log in dir, repairing a torn
// tail: the active segment is scanned and truncated back to its last
// whole, checksummed record, exactly the state before the interrupted
// write. Corruption in a sealed segment is an error — a crash can only
// ever tear the tail, so a bad frame mid-log means real disk damage
// that must not be silently dropped.
func OpenWAL(dir string, opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = OS{}
	}
	w := &WAL{fs: opts.FS, dir: dir, opts: opts, m: opts.Metrics}
	if err := w.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	names, err := w.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing wal dir: %w", err)
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := parseSegName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if len(seqs) == 0 {
		if err := w.createSegmentLocked(1); err != nil {
			return nil, err
		}
		w.recovery.Segments = 1
		return w, nil
	}
	// The last segment is the tail; repair it.
	tail := seqs[len(seqs)-1]
	w.sealed = seqs[:len(seqs)-1]
	good, _, err := w.scanSegment(tail, nil)
	if err != nil {
		return nil, err
	}
	size, err := w.fs.Size(join(dir, segName(tail)))
	if err != nil {
		return nil, fmt.Errorf("store: sizing tail segment: %w", err)
	}
	if good < size {
		if err := w.fs.Truncate(join(dir, segName(tail)), good); err != nil {
			return nil, fmt.Errorf("store: truncating torn tail: %w", err)
		}
		w.recovery.TornBytes = size - good
	}
	f, err := w.fs.OpenAppend(join(dir, segName(tail)))
	if err != nil {
		return nil, fmt.Errorf("store: reopening tail segment: %w", err)
	}
	// Make the truncation itself durable before new appends land after it.
	if w.recovery.TornBytes > 0 {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: syncing repaired tail: %w", err)
		}
	}
	w.active, w.activeSeq, w.activeSize = f, tail, good
	w.recovery.Segments = len(seqs)
	w.m.recordRecovery(w.recovery.TornBytes, 0, len(seqs), good)
	return w, nil
}

// Recovery returns what Open found.
func (w *WAL) Recovery() RecoveryStats { return w.recovery }

// createSegmentLocked creates segment seq, makes its directory entry
// durable, and installs it as the active tail.
func (w *WAL) createSegmentLocked(seq uint64) error {
	name := join(w.dir, segName(seq))
	f, err := w.fs.Create(name)
	if err != nil {
		return fmt.Errorf("store: creating segment: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		// The entry is not durable: a power cut could vanish the file
		// along with every record acked into it. Refuse to use it.
		f.Close()
		w.fs.Remove(name)
		return fmt.Errorf("store: syncing wal dir: %w", err)
	}
	w.active, w.activeSeq, w.activeSize = f, seq, 0
	return nil
}

// scanSegment walks segment seq and returns the byte offset after the
// last whole valid frame. When fn is non-nil it is called with each
// payload (valid only during the call). A torn tail stops the scan
// without error; the returned offset is where the tear begins.
func (w *WAL) scanSegment(seq uint64, fn func(payload []byte) error) (good int64, records int, err error) {
	rc, err := w.fs.OpenRead(join(w.dir, segName(seq)))
	if err != nil {
		return 0, 0, fmt.Errorf("store: opening segment for scan: %w", err)
	}
	defer rc.Close()
	rd := bufio.NewReaderSize(rc, 64<<10)
	var scratch [4096]byte
	for {
		payload, n, err := readFrame(rd, scratch[:])
		if err == io.EOF {
			return good, records, nil
		}
		if errors.Is(err, errTorn) {
			return good, records, nil
		}
		if err != nil {
			return good, records, err
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return good, records, err
			}
		}
		good += n
		records++
	}
}

// Append durably stores one record. When Append returns nil the record
// has been written and fsynced: a power cut at
// any later instant cannot lose it. On error the record is NOT durable;
// the tail is repaired — truncated back to the last acknowledged record
// — before the next append, so a half-written frame can never be
// followed by live records that recovery would then discard with it.
func (w *WAL) Append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: wal is closed")
	}
	if w.dirty {
		if err := w.repairLocked(); err != nil {
			w.m.recordAppendError()
			return err
		}
	}
	frame, err := appendFrame(w.buf[:0], payload)
	if err != nil {
		return err
	}
	w.buf = frame[:0]
	if _, err := w.active.Write(frame); err != nil {
		w.dirty = true
		w.m.recordAppendError()
		return fmt.Errorf("store: appending record: %w", err)
	}
	start := time.Now()
	err = w.active.Sync()
	w.m.recordFsync(time.Since(start), err)
	if err != nil {
		// The bytes may or may not have reached disk; either way the
		// record was not acknowledged, so the repair truncates it away.
		w.dirty = true
		w.m.recordAppendError()
		return fmt.Errorf("store: syncing record: %w", err)
	}
	w.activeSize += int64(len(frame))
	w.m.recordAppend(int64(len(frame)))
	if w.activeSize >= w.opts.SegmentBytes {
		// Best-effort roll: the record above is already durable, so a
		// rotation failure must not fail the append; the next append
		// simply retries on a longer tail.
		_ = w.rotateLocked()
	}
	return nil
}

// repairLocked truncates garbage a failed append left past the last
// acknowledged record, and makes the truncation durable.
func (w *WAL) repairLocked() error {
	name := join(w.dir, segName(w.activeSeq))
	if err := w.fs.Truncate(name, w.activeSize); err != nil {
		return fmt.Errorf("store: repairing tail after failed append: %w", err)
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: syncing repaired tail: %w", err)
	}
	w.dirty = false
	return nil
}

// Rotate seals the active segment and starts a fresh tail. It is called
// automatically when the active segment crosses SegmentBytes and by the
// compactor, which needs a sealed prefix to fold into a snapshot.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: wal is closed")
	}
	if w.dirty {
		if err := w.repairLocked(); err != nil {
			return err
		}
	}
	return w.rotateLocked()
}

// RotateNonEmpty seals the active segment only when it holds records,
// reporting whether a rotation ran. StreamState uses it to freeze the
// tail for a catch-up scan without growing the segment chain on every
// repeated (retried) catch-up of an idle log.
func (w *WAL) RotateNonEmpty() (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false, fmt.Errorf("store: wal is closed")
	}
	if w.dirty {
		if err := w.repairLocked(); err != nil {
			return false, err
		}
	}
	if w.activeSize == 0 {
		return false, nil
	}
	return true, w.rotateLocked()
}

func (w *WAL) rotateLocked() error {
	// Create-then-seal: if the new segment (or the directory fsync that
	// makes it durable) fails, the current tail stays active and nothing
	// is lost.
	old, oldSeq := w.active, w.activeSeq
	if err := w.createSegmentLocked(w.activeSeq + 1); err != nil {
		w.active, w.activeSeq = old, oldSeq // createSegmentLocked clobbers on success only; restore defensively
		return err
	}
	// Every frame in the old tail was synced as it was acked; Close just
	// releases the handle.
	if err := old.Close(); err != nil {
		// Data is already durable; a close error costs a file descriptor,
		// not records.
		_ = err
	}
	w.sealed = append(w.sealed, oldSeq)
	w.m.recordRotation(len(w.sealed) + 1)
	return nil
}

// SealedSegments returns the sealed segment sequence numbers, ascending.
func (w *WAL) SealedSegments() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]uint64(nil), w.sealed...)
}

// ActiveSeq returns the tail segment's sequence number.
func (w *WAL) ActiveSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.activeSeq
}

// ReplayFrom streams every record in segments with sequence number
// strictly greater than afterSeq, in append order, into fn. Records in
// the active tail are included. A torn tail (already repaired by Open)
// cannot appear; a bad frame inside a sealed segment aborts with an
// error because it means disk damage, not a crash.
func (w *WAL) ReplayFrom(afterSeq uint64, fn func(payload []byte) error) (int, error) {
	w.mu.Lock()
	seqs := append([]uint64(nil), w.sealed...)
	seqs = append(seqs, w.activeSeq)
	activeSize := w.activeSize
	w.mu.Unlock()
	total := 0
	for i, seq := range seqs {
		if seq <= afterSeq {
			continue
		}
		good, n, err := w.scanSegment(seq, fn)
		if err != nil {
			return total, err
		}
		total += n
		if i < len(seqs)-1 {
			// Sealed segments must scan end to end; stopping early means a
			// corrupt frame mid-log.
			size, serr := w.fs.Size(join(w.dir, segName(seq)))
			if serr != nil {
				return total, fmt.Errorf("store: sizing sealed segment: %w", serr)
			}
			if good < size {
				return total, fmt.Errorf("store: sealed segment %s corrupt at offset %d", segName(seq), good)
			}
		}
	}
	w.m.recordRecovery(0, total, len(seqs), activeSize)
	return total, nil
}

// Replay streams every record in the log. See ReplayFrom.
func (w *WAL) Replay(fn func(payload []byte) error) (int, error) { return w.ReplayFrom(0, fn) }

// PruneThrough removes sealed segments with sequence number ≤ seq —
// they have been folded into a snapshot — and makes the removals
// durable.
func (w *WAL) PruneThrough(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := w.sealed[:0]
	var removeErr error
	for _, s := range w.sealed {
		if s > seq {
			keep = append(keep, s)
			continue
		}
		if err := w.fs.Remove(join(w.dir, segName(s))); err != nil && removeErr == nil {
			removeErr = err
			keep = append(keep, s)
		}
	}
	w.sealed = keep
	if removeErr != nil {
		return fmt.Errorf("store: pruning segments: %w", removeErr)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return fmt.Errorf("store: syncing wal dir after prune: %w", err)
	}
	return nil
}

// Close releases the tail segment handle. Records stay on disk and
// replay at the next OpenWAL.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.active.Close()
}
