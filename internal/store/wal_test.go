package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sensorcal/internal/store/wal"
)

// These tests drive the segment log through its exported surface; the
// on-disk segment names and frame header size below restate its format.

const frameHeaderBytes = 8

func segName(seq uint64) string { return fmt.Sprintf("wal-%016x.seg", seq) }

// collect replays the whole log into a slice of payload copies.
func collect(t *testing.T, w *wal.WAL) [][]byte {
	t.Helper()
	var got [][]byte
	if _, err := w.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, string(bytes.Repeat([]byte{'x'}, i%37))))
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.OpenWAL(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(50)
	for _, p := range want {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, w)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean reopen replays the same sequence.
	w2, err := wal.OpenWAL(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rs := w2.Recovery(); rs.TornBytes != 0 {
		t.Fatalf("clean reopen reported %d torn bytes", rs.TornBytes)
	}
	if got := collect(t, w2); len(got) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(want))
	}
}

func TestWALRejectsEmptyAndOversizeRecords(t *testing.T) {
	w, err := wal.OpenWAL(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := w.Append(make([]byte, wal.MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
	if err := w.Append([]byte("fine")); err != nil {
		t.Fatalf("valid record after rejections: %v", err)
	}
}

// TestWALTornTailTruncatedAtEveryOffset chops the tail segment at every
// byte offset inside the final frame — mid-header, mid-payload, and the
// whole-frame boundary — and asserts recovery keeps exactly the records
// whose frames are whole and reports the rest as torn.
func TestWALTornTailTruncatedAtEveryOffset(t *testing.T) {
	base := t.TempDir()
	w, err := wal.OpenWAL(base, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(3)
	var offsets []int64 // frame end offsets
	var off int64
	for _, p := range want {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		off += frameHeaderBytes + int64(len(p))
		offsets = append(offsets, off)
	}
	w.Close()
	seg := filepath.Join(base, segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := offsets[1] // frames 0 and 1 stay whole
	for cut := lastStart; cut < int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := wal.OpenWAL(dir, wal.Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if rs := w2.Recovery(); rs.TornBytes != cut-lastStart {
			t.Fatalf("cut at %d: torn bytes = %d, want %d", cut, rs.TornBytes, cut-lastStart)
		}
		got := collect(t, w2)
		if len(got) != 2 {
			t.Fatalf("cut at %d: %d records survived, want 2", cut, len(got))
		}
		// The repaired tail must accept appends and replay them after the
		// survivors.
		if err := w2.Append([]byte("after-repair")); err != nil {
			t.Fatalf("cut at %d: append after repair: %v", cut, err)
		}
		if got := collect(t, w2); len(got) != 3 || string(got[2]) != "after-repair" {
			t.Fatalf("cut at %d: post-repair replay wrong: %q", cut, got)
		}
		w2.Close()
	}
}

// TestWALTornTailBitFlip flips one payload byte of the final record: the
// checksum must reject the frame and recovery truncates it like a tear.
func TestWALTornTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.OpenWAL(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(3) {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	seg := filepath.Join(dir, segName(1))
	blob, _ := os.ReadFile(seg)
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := wal.OpenWAL(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != 2 {
		t.Fatalf("%d records survived a corrupt last record, want 2", len(got))
	}
	if rs := w2.Recovery(); rs.TornBytes == 0 {
		t.Fatal("bit flip not reported as torn bytes")
	}
}

func TestWALRotationPreservesOrderAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.OpenWAL(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(40)
	for _, p := range want {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.SealedSegments()) < 2 {
		t.Fatalf("only %d sealed segments; rotation did not trigger", len(w.SealedSegments()))
	}
	got := collect(t, w)
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d out of order after rotation", i)
		}
	}
	w.Close()

	// Reopen: sealed segments plus tail replay in the same order.
	w2, err := wal.OpenWAL(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(want))
	}
}

// TestWALSealedSegmentCorruptionIsAnError: a bad frame in a sealed (non
// tail) segment means disk damage, not a crash, and must fail replay
// loudly instead of silently dropping history.
func TestWALSealedSegmentCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.OpenWAL(dir, wal.Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(30) {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	sealed := w.SealedSegments()
	if len(sealed) == 0 {
		t.Fatal("no sealed segment to corrupt")
	}
	w.Close()
	seg := filepath.Join(dir, segName(sealed[0]))
	blob, _ := os.ReadFile(seg)
	blob[2] ^= 0xff // corrupt the first frame's header
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := wal.OpenWAL(dir, wal.Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err) // open only repairs the tail; sealed damage surfaces at replay
	}
	defer w2.Close()
	if _, err := w2.Replay(func([]byte) error { return nil }); err == nil {
		t.Fatal("replay over a corrupt sealed segment succeeded")
	}
}

func TestWALPruneThroughRemovesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.OpenWAL(dir, wal.Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, p := range payloads(30) {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	sealed := w.SealedSegments()
	if len(sealed) < 2 {
		t.Fatalf("need ≥2 sealed segments, have %d", len(sealed))
	}
	cut := sealed[len(sealed)-1]
	if err := w.PruneThrough(cut); err != nil {
		t.Fatal(err)
	}
	if got := w.SealedSegments(); len(got) != 0 {
		t.Fatalf("sealed segments after prune: %v", got)
	}
	for _, s := range sealed {
		if _, err := os.Stat(filepath.Join(dir, segName(s))); !os.IsNotExist(err) {
			t.Fatalf("pruned segment %d still on disk", s)
		}
	}
	// Records past the prune point still replay.
	n := 0
	if _, err := w.ReplayFrom(cut, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("tail records lost by prune")
	}
}
