package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sensorcal/internal/store/wal"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return blob
}

// TestPowerCutUnsyncedWritesTear: synced bytes survive the crash intact;
// unsynced bytes survive only as a (possibly empty) prefix.
func TestPowerCutUnsyncedWritesTear(t *testing.T) {
	dir := t.TempDir()
	fs := NewPowerCutFS(wal.OS{}, 42)
	path := filepath.Join(dir, "seg")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable-")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Before the crash the unsynced bytes are not on the real file.
	if got := readFile(t, path); string(got) != "durable-" {
		t.Fatalf("unsynced bytes leaked to disk: %q", got)
	}
	fs.Crash()
	got := readFile(t, path)
	if len(got) < len("durable-") || string(got[:8]) != "durable-" {
		t.Fatalf("synced prefix damaged: %q", got)
	}
	if len(got) > len("durable-doomed") {
		t.Fatalf("crash invented bytes: %q", got)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write after crash = %v, want ErrPowerCut", err)
	}
	if _, err := fs.Create(filepath.Join(dir, "other")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("create after crash = %v, want ErrPowerCut", err)
	}
}

// TestPowerCutUnsyncedDirectoryEntriesVanish: a file created (or
// renamed, or removed) without a directory fsync rolls back at the
// crash.
func TestPowerCutUnsyncedDirectoryEntriesVanish(t *testing.T) {
	dir := t.TempDir()
	fs := NewPowerCutFS(wal.OS{}, 7)

	// Created, synced content, but the directory entry never fsynced.
	ghost := filepath.Join(dir, "ghost")
	f, err := fs.Create(ghost)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	f.Sync()

	// Removed without a directory fsync: comes back at the crash.
	keeper := filepath.Join(dir, "keeper")
	if err := os.WriteFile(keeper, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(keeper); err != nil {
		t.Fatal(err)
	}

	// Renamed without a directory fsync: reverts at the crash.
	src := filepath.Join(dir, "src")
	if err := os.WriteFile(src, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "dst")
	if err := fs.Rename(src, dst); err != nil {
		t.Fatal(err)
	}

	fs.Crash()
	if blob := readFile(t, ghost); blob != nil {
		t.Fatalf("non-dir-synced create survived: %q", blob)
	}
	if got := readFile(t, keeper); string(got) != "kept" {
		t.Fatalf("non-dir-synced remove stuck: %q", got)
	}
	if blob := readFile(t, dst); blob != nil {
		t.Fatalf("non-dir-synced rename survived: %q", blob)
	}
	if got := readFile(t, src); string(got) != "payload" {
		t.Fatalf("rename rollback lost the source: %q", got)
	}
}

// TestPowerCutSyncDirMakesEntriesDurable: after SyncDir the same
// directory operations survive.
func TestPowerCutSyncDirMakesEntriesDurable(t *testing.T) {
	dir := t.TempDir()
	fs := NewPowerCutFS(wal.OS{}, 7)
	path := filepath.Join(dir, "kept")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if got := readFile(t, path); string(got) != "data" {
		t.Fatalf("dir-synced file lost: %q", got)
	}
}

// TestPowerCutBudgetFiresMidWrite: the armed byte budget cuts the power
// inside a Write, leaving at most the attempted bytes and returning
// ErrPowerCut.
func TestPowerCutBudgetFiresMidWrite(t *testing.T) {
	dir := t.TempDir()
	fs := NewPowerCutFS(wal.OS{}, 3)
	path := filepath.Join(dir, "seg")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fs.SyncDir(dir)
	fs.ArmCrash(10)
	if _, err := f.Write([]byte("12345678")); err != nil { // 8 bytes: fits
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdefgh")) // crosses the budget at byte 2
	if !errors.Is(err, ErrPowerCut) {
		t.Fatalf("budget write = (%d, %v), want ErrPowerCut", n, err)
	}
	if !fs.Crashed() {
		t.Fatal("budget exhausted but no crash")
	}
	got := readFile(t, path)
	if len(got) < 8 || string(got[:8]) != "12345678" {
		t.Fatalf("synced prefix damaged: %q", got)
	}
	if len(got) > 10 {
		t.Fatalf("more bytes than the budget allowed: %q", got)
	}
}

// TestPowerCutShortWriteAndFsyncError: the transient fault injections
// return errors without cutting the power, and a later Sync can still
// flush.
func TestPowerCutShortWriteAndFsyncError(t *testing.T) {
	dir := t.TempDir()
	fs := NewPowerCutFS(wal.OS{}, 9)
	fs.ShortWriteRate = 1.0
	path := filepath.Join(dir, "seg")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("hello"))
	if err == nil || errors.Is(err, ErrPowerCut) {
		t.Fatalf("short write = (%d, %v), want a transient error", n, err)
	}
	if n > len("hello") {
		t.Fatalf("short write wrote %d > attempted", n)
	}
	fs.ShortWriteRate = 0
	fs.FsyncErrorRate = 1.0
	if err := f.Sync(); err == nil || errors.Is(err, ErrPowerCut) {
		t.Fatalf("fsync error = %v, want a transient error", err)
	}
	fs.FsyncErrorRate = 0
	if err := f.Sync(); err != nil {
		t.Fatalf("recovered fsync: %v", err)
	}
	if fs.Crashed() {
		t.Fatal("transient faults must not crash the machine")
	}
}
