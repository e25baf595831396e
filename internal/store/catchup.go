package store

import (
	"encoding/json"
	"fmt"
	"time"

	"sensorcal/internal/trust"
)

// Catch-up: a replica joining the collector ring bootstraps its trust
// state by replaying a live peer's durable log — the newest snapshot
// first, then every record in segments the snapshot does not cover,
// sealed segments before the active tail (the same order Recover
// replays). The joiner applies each record through its *own* collector
// and WAL, so the copied state is immediately as durable on the joiner
// as it was on the peer.

// CatchupRecord is one element of a catch-up stream, in replay order.
type CatchupRecord struct {
	// Kind is "snapshot" (Ledger set), "reg" (Node set) or "scores"
	// (At + Scores set). Unknown kinds must be skipped by consumers, the
	// same forward-compatibility rule Recover applies.
	Kind   string              `json:"k"`
	Covers uint64              `json:"covers,omitempty"`
	Ledger json.RawMessage     `json:"ledger,omitempty"`
	Node   *trust.Node         `json:"node,omitempty"`
	At     time.Time           `json:"at,omitempty"`
	Scores []trust.ScoreUpdate `json:"scores,omitempty"`
}

// StreamState feeds the log's current durable state to fn in replay
// order and returns how many records were produced. Only the stream's
// *boundary* is frozen under the log mutex: the snapshot bytes are
// read, and the active tail is rotated so every record past the
// snapshot lives in a sealed — therefore immutable — segment. The
// segment scan and every fn call then run outside the lock, one record
// in memory at a time, so a large log never spikes the serving
// replica's memory and a slow consumer (a joiner on the far end of a
// network stream) never stalls its appends, which simply land in the
// fresh tail beyond the stream's boundary.
//
// A compaction racing the scan can prune a captured segment out from
// under it; that fails the stream with an open error and the joiner
// retries — never a torn or inconsistent copy.
func (t *TrustLog) StreamState(fn func(CatchupRecord) error) (int, error) {
	t.mu.Lock()
	coveredSeq := t.coveredSeq
	var snap json.RawMessage
	if coveredSeq > 0 {
		raw, err := t.readSnapshot(coveredSeq)
		if err != nil {
			t.mu.Unlock()
			return 0, err
		}
		snap = raw
	}
	if _, err := t.wal.RotateNonEmpty(); err != nil {
		t.mu.Unlock()
		return 0, fmt.Errorf("store: sealing tail for catch-up: %w", err)
	}
	sealed := t.wal.SealedSegments()
	t.mu.Unlock()

	n := 0
	emit := func(rec CatchupRecord) error {
		if err := fn(rec); err != nil {
			return err
		}
		n++
		return nil
	}
	if snap != nil {
		if err := emit(CatchupRecord{Kind: "snapshot", Covers: coveredSeq, Ledger: snap}); err != nil {
			return n, err
		}
	}
	for _, seq := range sealed {
		if seq <= coveredSeq {
			continue
		}
		_, err := t.wal.ScanSealed(seq, func(payload []byte) error {
			var rec logRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return fmt.Errorf("store: decoding trust record for catch-up: %w", err)
			}
			switch rec.Kind {
			case "reg":
				if rec.Node == nil || rec.Node.ID == "" {
					return fmt.Errorf("store: registration record without a node")
				}
				return emit(CatchupRecord{Kind: "reg", Node: rec.Node})
			case "scores":
				return emit(CatchupRecord{Kind: "scores", At: rec.At, Scores: rec.Scores})
			default:
				// Skipped, not fatal — same rule as Recover.
			}
			return nil
		})
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
