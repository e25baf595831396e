// Package wal is the crash-safe storage substrate of the collector
// tier: an append-only segment WAL whose records are length-prefixed and
// CRC32C-checksummed, with torn-tail recovery, size-triggered segment
// rotation, and snapshot compaction. It exists because the whole-file
// JSON ledger save can lose the entire trust history to one badly timed
// power cut — and a fabricator's cheapest attack on the paper's
// consensus scheme is laundering its history by crashing the collector
// (see internal/trust/persist.go).
//
// Durability discipline:
//
//   - every acknowledged append is fsynced before Append returns;
//   - segments are fsynced before they are sealed at rotation;
//   - the directory is fsynced after a segment is created and after a
//     snapshot rename, so the entries themselves survive a power cut;
//   - recovery scans segments in order, truncates a torn tail back to
//     the last whole record, and replays the rest.
//
// All file access goes through the FS interface so the chaos harness
// (internal/resilience/chaos) can inject short writes, fsync errors and
// kill-at-random-offset power cuts underneath an unmodified WAL.
package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the write side of one WAL segment or snapshot temp file.
type File interface {
	io.Writer
	// Sync flushes the file's written bytes to stable storage. A record
	// is only acknowledged after Sync returns nil.
	Sync() error
	Close() error
}

// FS is the filesystem surface the WAL runs on. The production
// implementation is OS; the chaos harness wraps it with a power-cut
// model (buffered unsynced writes that tear at a crash point).
type FS interface {
	// OpenRead opens name for reading (recovery scans).
	OpenRead(name string) (io.ReadCloser, error)
	// Create creates (or truncates) name for writing.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
	// Truncate cuts name to size bytes — the torn-tail repair primitive.
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself so created/renamed entries
	// survive a power cut.
	SyncDir(dir string) error
	// ReadDir returns the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	MkdirAll(dir string) error
	// Size returns name's current length in bytes.
	Size(name string) (int64, error)
}

// OS is the real-filesystem FS.
type OS struct{}

func (OS) OpenRead(name string) (io.ReadCloser, error) { return os.Open(name) }

func (OS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (OS) Remove(name string) error               { return os.Remove(name) }
func (OS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (OS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OS) Size(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// join builds a path inside the WAL directory; it exists so the package
// never depends on the working directory.
func join(dir, name string) string { return filepath.Join(dir, name) }
