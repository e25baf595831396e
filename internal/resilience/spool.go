package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"sensorcal/internal/store/wal"
)

// Store-and-forward spool: a durable FIFO between a producer (the
// agent's measurement loop) and an unreliable consumer (the HTTP path to
// the collector), built on the segment WAL the collector's trust log
// uses (internal/store/wal), so one power-cut model proves both. Append
// is durable when it returns; a drainer reads batches with Peek and
// removes them with Ack once the remote end has them.
//
// The WAL holds two kinds of JSON frame:
//
//	{"seq":7,"key":"...","payload":{...}}   — a put
//	{"acked":7}                             — every put with seq ≤ 7 is delivered
//
// Acks are a FIFO prefix (the drainer acks what Peek returned), so a
// watermark is all an ack needs to say, and recovery is "the puts above
// the highest watermark, in log order". Sealed segments below both the
// oldest pending put and the newest watermark frame are pruned. Keeping
// the watermark's segment means a prune that a power cut half undoes, in
// any order, can only bring back puts that watermark covers.

// Record is one spooled payload.
type Record struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// spoolFrame is one WAL record: a put when Key is set, an ack watermark
// when Acked is.
type spoolFrame struct {
	Seq     uint64          `json:"seq,omitempty"`
	Key     string          `json:"key,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Acked   uint64          `json:"acked,omitempty"`
}

// pendingRecord is an unacked put and where the log holds it.
type pendingRecord struct {
	Record
	seq uint64 // increasing in log order
	seg uint64 // WAL segment of the put (a lower bound after replay)
}

var errSpoolClosed = errors.New("resilience: spool is closed")

// Spool is a durable FIFO of keyed records. It is safe for concurrent
// use: producers Append while a drainer goroutine Peeks and Acks.
type Spool struct {
	mu      sync.Mutex
	w       *wal.WAL // nil once closed
	name    string
	pending []pendingRecord     // unacked puts, oldest first
	index   map[string]struct{} // pending keys
	next    uint64              // seq of the next put
	oldest  uint64              // lowest segment not yet pruned
	m       *spoolMetrics
	// What open recovered, reported by Instrument.
	replayed, torn int64
}

// OpenSpool opens (or creates) the spool in directory path and recovers
// its pending records. A file at path — such as the JSONL spool agents
// wrote before the spool moved onto the WAL — is an error, and is left
// as it is.
func OpenSpool(path string) (*Spool, error) { return openSpool(path, wal.Options{}) }

// openSpool is OpenSpool on a given filesystem and segment size, the
// seam the power-cut tests use.
func openSpool(path string, opts wal.Options) (*Spool, error) {
	if opts.FS == nil {
		opts.FS = wal.OS{}
	}
	w, err := wal.OpenWAL(path, opts)
	if err != nil {
		return nil, fmt.Errorf("resilience: opening spool: %w", err)
	}
	s := &Spool{w: w, name: filepath.Base(path), index: make(map[string]struct{}),
		oldest: w.ActiveSeq(), torn: w.Recovery().TornBytes}
	if sealed := w.SealedSegments(); len(sealed) > 0 {
		s.oldest = sealed[0]
	}
	var watermark uint64
	_, err = w.Replay(func(p []byte) error {
		var f spoolFrame
		if err := json.Unmarshal(p, &f); err != nil {
			return fmt.Errorf("resilience: decoding spool frame: %w", err)
		}
		s.next = max(s.next, f.Seq, f.Acked)
		if f.Key != "" && f.Seq > watermark {
			// Replayed puts count as in the oldest segment: safe, and it
			// only delays pruning until they drain.
			s.putLocked(pendingRecord{Record{f.Key, f.Payload}, f.Seq, s.oldest})
		}
		if f.Acked > watermark {
			watermark = f.Acked
			n := 0
			for n < len(s.pending) && s.pending[n].seq <= watermark {
				n++
			}
			s.dropLocked(n)
		}
		return nil
	})
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("resilience: replaying spool: %w", err)
	}
	s.next, s.replayed = s.next+1, int64(len(s.pending))
	return s, nil
}

// putLocked adds a record unless its key is already pending.
func (s *Spool) putLocked(r pendingRecord) {
	if _, ok := s.index[r.Key]; !ok {
		s.index[r.Key] = struct{}{}
		s.pending = append(s.pending, r)
	}
}

// dropLocked removes the n oldest pending records.
func (s *Spool) dropLocked(n int) {
	for _, r := range s.pending[:n] {
		delete(s.index, r.Key)
	}
	clear(s.pending[:n]) // release the payloads before append reallocates
	s.pending = s.pending[n:]
}

// appendLocked writes one frame; nil means it is durable.
func (s *Spool) appendLocked(f spoolFrame) error {
	b, err := json.Marshal(f)
	if err == nil {
		err = s.w.Append(b)
	}
	if err != nil {
		return fmt.Errorf("resilience: appending to spool: %w", err)
	}
	return nil
}

// Append durably stores payload under key: once the producer sees nil, a
// crash cannot lose the record. Appending an already-pending key is a
// no-op (nil error), which makes producer retries harmless.
func (s *Spool) Append(key string, payload interface{}) error {
	if key == "" {
		return fmt.Errorf("resilience: spool record needs a key")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("resilience: marshaling spool payload: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return errSpoolClosed
	}
	if _, ok := s.index[key]; ok {
		return nil
	}
	r := pendingRecord{Record{key, raw}, s.next, s.w.ActiveSeq()}
	if err := s.appendLocked(spoolFrame{Seq: r.seq, Key: key, Payload: raw}); err != nil {
		return err
	}
	s.next++
	s.putLocked(r)
	s.m.record(s.name, 1, 0, len(s.pending))
	return nil
}

// Peek returns up to max pending records in arrival order (all of them
// when max <= 0). The returned slice is a copy; records stay pending
// until Ack.
func (s *Spool) Peek(max int) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.pending)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Record, n)
	for i := range out {
		out[i] = s.pending[i].Record
	}
	return out
}

// Ack durably marks keys as delivered; they will not replay after a
// restart. The still-pending keys among them must be the oldest pending
// records in arrival order — what Peek returned. Keys no longer pending
// are skipped, so re-acking a delivered batch is a no-op.
func (s *Spool) Ack(keys ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return errSpoolClosed
	}
	n := 0
	for _, k := range keys {
		if _, ok := s.index[k]; !ok {
			continue
		}
		if n == len(s.pending) || s.pending[n].Key != k {
			return fmt.Errorf("resilience: spool ack of %q is not the oldest pending record", k)
		}
		n++
	}
	if n == 0 {
		return nil
	}
	ackSeg := s.w.ActiveSeq()
	if err := s.appendLocked(spoolFrame{Acked: s.pending[n-1].seq}); err != nil {
		return err
	}
	s.dropLocked(n)
	s.m.record(s.name, 0, n, len(s.pending))
	// Best-effort: a failed prune leaves a longer log that replays to the
	// same records, and the next Ack retries.
	through := ackSeg - 1
	if len(s.pending) > 0 {
		through = min(through, s.pending[0].seg-1)
	}
	if through >= s.oldest && s.w.PruneThrough(through) == nil {
		s.oldest = through + 1
	}
	return nil
}

// Len returns the number of pending (unacked) records.
func (s *Spool) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Close releases the WAL. Pending records stay on disk and replay at the
// next OpenSpool.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w = nil
	return err
}
