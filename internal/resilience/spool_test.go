package resilience

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sensorcal/internal/obs"
	"sensorcal/internal/store/wal"
)

type testPayload struct {
	N int `json:"n"`
}

func mustAppend(t *testing.T, s *Spool, key string, n int) {
	t.Helper()
	if err := s.Append(key, testPayload{N: n}); err != nil {
		t.Fatalf("Append(%s): %v", key, err)
	}
}

// keysOf lists the pending keys in FIFO order.
func keysOf(s *Spool) []string {
	var keys []string
	for _, r := range s.Peek(0) {
		keys = append(keys, r.Key)
	}
	return keys
}

func TestSpoolAppendPeekAck(t *testing.T) {
	s, err := OpenSpool(filepath.Join(t.TempDir(), "spool.jsonl"))
	if err != nil {
		t.Fatalf("OpenSpool: %v", err)
	}
	defer s.Close()
	s.Instrument(obs.NewRegistry())
	for i := 0; i < 5; i++ {
		mustAppend(t, s, fmt.Sprintf("k%d", i), i)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	batch := s.Peek(3)
	if len(batch) != 3 || batch[0].Key != "k0" || batch[2].Key != "k2" {
		t.Fatalf("Peek(3) = %+v, want k0..k2 in order", batch)
	}
	if err := s.Ack("k0", "k1", "k2"); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len after ack = %d, want 2", s.Len())
	}
	if rest := s.Peek(0); len(rest) != 2 || rest[0].Key != "k3" {
		t.Fatalf("Peek after ack = %+v, want k3,k4", rest)
	}
}

func TestSpoolReplayAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.jsonl")
	s, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("OpenSpool: %v", err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, s, fmt.Sprintf("k%d", i), i)
	}
	if err := s.Ack("k0"); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	s.Close()

	s2, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := s2.Peek(0)
	want := []string{"k1", "k2", "k3"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d (%+v)", len(got), len(want), got)
	}
	for i, k := range want {
		if got[i].Key != k {
			t.Fatalf("replay[%d] = %s, want %s", i, got[i].Key, k)
		}
		var p testPayload
		if err := json.Unmarshal(got[i].Payload, &p); err != nil || p.N != i+1 {
			t.Fatalf("payload %s = %+v (%v)", k, p, err)
		}
	}
	// The sequence continues past the replayed records.
	mustAppend(t, s2, "k4", 4)
	if err := s2.Ack("k1", "k2"); err != nil {
		t.Fatalf("Ack after reopen: %v", err)
	}
	if got := keysOf(s2); !reflect.DeepEqual(got, []string{"k3", "k4"}) {
		t.Fatalf("after reopen, append and ack: %v", got)
	}
}

// TestSpoolAckRejectsNonPrefix: an ack is a watermark, so it can only
// cover the oldest pending records; anything else is refused without
// writing.
func TestSpoolAckRejectsNonPrefix(t *testing.T) {
	s, err := OpenSpool(filepath.Join(t.TempDir(), "spool"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		mustAppend(t, s, fmt.Sprintf("k%d", i), i)
	}
	for _, keys := range [][]string{{"k1"}, {"k0", "k2"}, {"k1", "k0"}, {"k0", "k0"}} {
		if err := s.Ack(keys...); err == nil {
			t.Fatalf("Ack(%v) accepted", keys)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("refused acks changed the spool: Len = %d", s.Len())
	}
	// Keys already delivered are skipped, so a partly re-acked batch is fine.
	if err := s.Ack("k0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ack("k0", "k1"); err != nil {
		t.Fatalf("re-ack plus next: %v", err)
	}
	if got := keysOf(s); !reflect.DeepEqual(got, []string{"k2"}) {
		t.Fatalf("pending = %v, want [k2]", got)
	}
}

// TestSpoolCrashMidAppendRecovery simulates a crash partway through a WAL
// write: the torn frame at the tail is discarded and every earlier record
// replays.
func TestSpoolCrashMidAppendRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.jsonl")
	s, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("OpenSpool: %v", err)
	}
	mustAppend(t, s, "k0", 0)
	mustAppend(t, s, "k1", 1)
	s.Close()

	// Crash mid-append: half a frame at the tail of the active segment.
	seg := filepath.Join(path, fmt.Sprintf("wal-%016x.seg", 1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open for tear: %v", err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 1, 2, 3, 4, '{', '"'}); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()

	s2, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if got := keysOf(s2); !reflect.DeepEqual(got, []string{"k0", "k1"}) {
		t.Fatalf("recovered %v, want k0,k1", got)
	}
	if s2.torn != 10 {
		t.Fatalf("torn bytes = %d, want 10", s2.torn)
	}
	// The WAL must be usable after recovery: append and reopen again.
	mustAppend(t, s2, "k2", 2)
	s2.Close()
	s3, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer s3.Close()
	if got := keysOf(s3); !reflect.DeepEqual(got, []string{"k0", "k1", "k2"}) {
		t.Fatalf("after post-recovery append: %v, want k0,k1,k2", got)
	}
}

// TestSpoolAckedBatchDedup: re-acking an already-acked batch and
// re-appending an already-pending key are both no-ops — the exact
// semantics a retried network drain relies on.
func TestSpoolAckedBatchDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.jsonl")
	s, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("OpenSpool: %v", err)
	}
	mustAppend(t, s, "k0", 0)
	mustAppend(t, s, "k0", 99) // duplicate append ignored
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after duplicate append", s.Len())
	}
	var p testPayload
	if err := json.Unmarshal(s.Peek(1)[0].Payload, &p); err != nil || p.N != 0 {
		t.Fatalf("duplicate append overwrote payload: %+v err %v", p, err)
	}
	if err := s.Ack("k0"); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if err := s.Ack("k0"); err != nil { // already-acked batch retried
		t.Fatalf("re-Ack: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	s.Close()
	s2, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 0 {
		t.Fatalf("acked record replayed after reopen")
	}
}

// TestSpoolDrainWhileAppend exercises the concurrent producer/drainer
// pattern under the race detector.
func TestSpoolDrainWhileAppend(t *testing.T) {
	s, err := OpenSpool(filepath.Join(t.TempDir(), "spool.jsonl"))
	if err != nil {
		t.Fatalf("OpenSpool: %v", err)
	}
	defer s.Close()
	const total = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // producer
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := s.Append(fmt.Sprintf("k%d", i), testPayload{N: i}); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	drained := make(map[string]bool)
	for len(drained) < total {
		batch := s.Peek(16)
		if len(batch) == 0 {
			continue
		}
		keys := make([]string, len(batch))
		for i, r := range batch {
			if drained[r.Key] {
				t.Fatalf("record %s drained twice", r.Key)
			}
			drained[r.Key] = true
			keys[i] = r.Key
		}
		if err := s.Ack(keys...); err != nil {
			t.Fatalf("Ack: %v", err)
		}
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Fatalf("spool not empty after full drain: %d", s.Len())
	}
}

// segments counts the WAL segment files in a spool directory.
func segments(t *testing.T, dir string) int {
	t.Helper()
	names, err := wal.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// TestSpoolPrunesAckedSegments: draining reclaims space by removing
// sealed segments whose puts are all acked, and what is left replays to
// exactly the unacked records.
func TestSpoolPrunesAckedSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool")
	opts := wal.Options{SegmentBytes: 256}
	s, err := openSpool(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		mustAppend(t, s, fmt.Sprintf("k%02d", i), i)
	}
	grown := segments(t, path)
	if grown < 10 {
		t.Fatalf("%d segments after 60 appends; rotation did not trigger", grown)
	}
	for s.Len() > 10 {
		var keys []string
		for _, r := range s.Peek(7) {
			keys = append(keys, r.Key)
		}
		if err := s.Ack(keys...); err != nil {
			t.Fatal(err)
		}
	}
	if n := segments(t, path); n > grown/2 {
		t.Fatalf("%d of %d segments left with 50 of 60 records acked", n, grown)
	}
	want := keysOf(s)
	mustAppend(t, s, "fresh", 1)
	want = append(want, "fresh")
	s.Close()

	s2, err := openSpool(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after pruning = %v, want %v", got, want)
	}
	// A spool drained dry after a reopen keeps one or two segments.
	if err := s2.Ack(want...); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s2, "last", 2)
	if err := s2.Ack("last"); err != nil {
		t.Fatal(err)
	}
	if n := segments(t, path); n > 2 {
		t.Fatalf("%d segments after draining everything", n)
	}
	s2.Close()
	s3, err := openSpool(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 0 {
		t.Fatalf("drained spool replayed %v", keysOf(s3))
	}
}

// BenchmarkSpoolDrain prices draining a post-outage backlog the way
// trust.Client does: Peek(64), then Ack of exactly that batch. The
// backlog is built through the real fsynced Append, off the clock;
// ns/record is the drain cost per record, which should not grow with
// the backlog.
func BenchmarkSpoolDrain(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		b.Run(fmt.Sprintf("backlog=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := OpenSpool(filepath.Join(b.TempDir(), "spool"))
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if err := s.Append(fmt.Sprintf("node-%04d|tv-521MHz|%d", j%500, j), testPayload{N: j}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for s.Len() > 0 {
					batch := s.Peek(64)
					keys := make([]string, len(batch))
					for k, r := range batch {
						keys[k] = r.Key
					}
					if err := s.Ack(keys...); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				s.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
