// Package store is the collector's durable trust log: trust mutations
// as records in the segment WAL (internal/store/wal), folded into JSON
// ledger snapshots, and streamed to joining replicas as catch-up.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sensorcal/internal/store/wal"
	"sensorcal/internal/trust"
)

// The segment log itself lives in internal/store/wal. These aliases keep
// the names the benchmark harness (bench/, a frozen module) compiles
// against; delete them in the next benchmark-only change (ROADMAP item
// 1), once bench/ imports the wal package directly.
type (
	FS      = wal.FS
	File    = wal.File
	OS      = wal.OS
	Options = wal.Options
	Metrics = wal.Metrics
)

// NewMetrics is wal.NewMetrics; see the aliases above.
var NewMetrics = wal.NewMetrics

// TrustLog is the trust.Store implementation: trust mutations as WAL
// records, folded periodically into a JSON ledger snapshot (plain
// trust.Ledger.Save output, so operators can inspect it with standard
// tools).
//
// Record payloads are JSON envelopes inside the binary checksummed
// frame — the frame layer detects torn writes, the envelope carries
// versionable structure:
//
//	{"k":"reg","node":{...}}                 — one enrollment
//	{"k":"scores","at":...,"scores":[...]}   — absolute post-epoch scores
//
// Score records carry absolute values, so replaying a record that a
// snapshot already folded in is idempotent.
//
// Directory layout:
//
//	wal-<seq>.seg            — segment files (see internal/store/wal)
//	snapshot-<seq>.json      — ledger state covering segments ≤ seq
//
// Compaction: rotate (seal the tail), write snapshot-<sealedSeq>.json
// via write-temp + fsync + rename + directory fsync, then prune covered
// segments and older snapshots. A crash at any point leaves either the
// old snapshot plus all segments, or the new snapshot plus a superset
// of the segments it needs — both recover to the same ledger.
type TrustLog struct {
	wal *wal.WAL
	fs  wal.FS
	dir string
	m   *wal.Metrics

	mu         sync.Mutex
	coveredSeq uint64 // newest snapshot's coverage
}

const (
	snapPrefix = "snapshot-"
	snapSuffix = ".json"
	// DefaultCompactAfterSegments is how many sealed segments accumulate
	// before MaybeCompact folds them into a snapshot.
	DefaultCompactAfterSegments = 4
)

func snapName(seq uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(hex, "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// logRecord is the JSON envelope inside one WAL frame.
type logRecord struct {
	Kind   string              `json:"k"`
	Node   *trust.Node         `json:"node,omitempty"`
	At     time.Time           `json:"at,omitempty"`
	Scores []trust.ScoreUpdate `json:"scores,omitempty"`
}

// snapshotFile wraps the exported ledger snapshot with its WAL coverage.
type snapshotFile struct {
	CoversSeq uint64          `json:"covers_seq"`
	Ledger    json.RawMessage `json:"ledger"`
}

// OpenTrustLog opens (or creates) the durable trust store in dir.
// Leftover temp files from an interrupted compaction are removed.
func OpenTrustLog(dir string, opts wal.Options) (*TrustLog, error) {
	if opts.FS == nil {
		opts.FS = wal.OS{}
	}
	w, err := wal.OpenWAL(dir, opts)
	if err != nil {
		return nil, err
	}
	t := &TrustLog{wal: w, fs: opts.FS, dir: dir, m: opts.Metrics}
	names, err := t.fs.ReadDir(dir)
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("store: listing trust log dir: %w", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// An interrupted compaction's half-written snapshot: never
			// renamed, so never authoritative. Drop it.
			_ = t.fs.Remove(filepath.Join(dir, name))
		}
		if seq, ok := parseSnapName(name); ok && seq > t.coveredSeq {
			t.coveredSeq = seq
		}
	}
	// A crash between publishing a snapshot and removing its predecessor
	// leaves both; the newest wins and the stale one is junk.
	for _, name := range names {
		if seq, ok := parseSnapName(name); ok && seq < t.coveredSeq {
			_ = t.fs.Remove(filepath.Join(dir, name))
		}
	}
	return t, nil
}

// TrustRecoveryStats reports what Recover restored.
type TrustRecoveryStats struct {
	// SnapshotSeq is the coverage of the snapshot loaded (0: none).
	SnapshotSeq uint64
	// SnapshotNodes restored from the snapshot.
	SnapshotNodes int
	// Records replayed from segments past the snapshot.
	Records int
	// TornBytes truncated from the tail at open.
	TornBytes int64
}

// Recover restores the ledger: newest valid snapshot first, then every
// record in segments the snapshot does not cover, in append order. The
// ledger must be empty. now validates the snapshot's SavedAt (see
// trust.LoadAt).
func (t *TrustLog) Recover(l *trust.Ledger, now time.Time) (TrustRecoveryStats, error) {
	t.mu.Lock()
	coveredSeq := t.coveredSeq
	t.mu.Unlock()
	stats := TrustRecoveryStats{TornBytes: t.wal.Recovery().TornBytes}
	if coveredSeq > 0 {
		raw, err := t.readSnapshot(coveredSeq)
		if err != nil {
			return stats, err
		}
		if err := l.LoadAt(bytes.NewReader(raw), now); err != nil {
			return stats, fmt.Errorf("store: loading snapshot %s: %w", snapName(coveredSeq), err)
		}
		stats.SnapshotSeq = coveredSeq
		stats.SnapshotNodes = l.Len()
	}
	n, err := t.wal.ReplayFrom(coveredSeq, func(payload []byte) error {
		var rec logRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("store: decoding trust record: %w", err)
		}
		switch rec.Kind {
		case "reg":
			if rec.Node == nil || rec.Node.ID == "" {
				return fmt.Errorf("store: registration record without a node")
			}
			// Already registered means the snapshot covers it; replay is
			// idempotent by construction.
			_ = l.Register(*rec.Node)
		case "scores":
			for _, u := range rec.Scores {
				l.SetScore(u.Node, u.Score)
			}
		default:
			// Unknown kinds are skipped, not fatal: a newer version's
			// records must survive a binary rollback.
		}
		return nil
	})
	stats.Records = n
	if err != nil {
		return stats, err
	}
	return stats, nil
}

// readSnapshot returns the embedded ledger snapshot bytes of
// snapshot-<seq>.json.
func (t *TrustLog) readSnapshot(seq uint64) (json.RawMessage, error) {
	rc, err := t.fs.OpenRead(filepath.Join(t.dir, snapName(seq)))
	if err != nil {
		return nil, fmt.Errorf("store: opening snapshot: %w", err)
	}
	defer rc.Close()
	var sf snapshotFile
	if err := json.NewDecoder(rc).Decode(&sf); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot %s: %w", snapName(seq), err)
	}
	if sf.CoversSeq != seq {
		return nil, fmt.Errorf("store: snapshot %s claims coverage %d", snapName(seq), sf.CoversSeq)
	}
	return sf.Ledger, nil
}

// AppendRegister implements trust.Store. Appends serialize on the log
// mutex so a concurrent StreamState dump sees a stable tail.
func (t *TrustLog) AppendRegister(n trust.Node) error {
	payload, err := json.Marshal(logRecord{Kind: "reg", Node: &n})
	if err != nil {
		return fmt.Errorf("store: encoding registration: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wal.Append(payload)
}

// AppendScores implements trust.Store.
func (t *TrustLog) AppendScores(at time.Time, updates []trust.ScoreUpdate) error {
	payload, err := json.Marshal(logRecord{Kind: "scores", At: at.UTC(), Scores: updates})
	if err != nil {
		return fmt.Errorf("store: encoding score batch: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wal.Append(payload)
}

// MaybeCompact compacts when at least threshold sealed segments have
// accumulated (0 means DefaultCompactAfterSegments). It reports whether
// a compaction ran.
func (t *TrustLog) MaybeCompact(l *trust.Ledger, now time.Time, threshold int) (bool, error) {
	if threshold <= 0 {
		threshold = DefaultCompactAfterSegments
	}
	if len(t.wal.SealedSegments()) < threshold {
		return false, nil
	}
	return true, t.Compact(l, now)
}

// Compact folds every sealed segment into a fresh snapshot and prunes
// them. The active tail is sealed first, so the snapshot's coverage
// boundary is a segment boundary; appends landing after the rotation go
// to the new tail and are replayed over the snapshot at recovery —
// harmless, because score records are absolute and registrations are
// idempotent.
func (t *TrustLog) Compact(l *trust.Ledger, now time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.wal.Rotate(); err != nil {
		t.m.RecordCompaction(err, 0)
		return err
	}
	sealed := t.wal.SealedSegments()
	if len(sealed) == 0 {
		return nil
	}
	coverSeq := sealed[len(sealed)-1]
	if err := t.writeSnapshot(l, now, coverSeq); err != nil {
		t.m.RecordCompaction(err, 0)
		return err
	}
	oldCovered := t.coveredSeq
	t.coveredSeq = coverSeq
	// Prune is cleanup, not correctness: leftover covered segments replay
	// idempotently at recovery. Report the error but the snapshot stands.
	if err := t.wal.PruneThrough(coverSeq); err != nil {
		t.m.RecordCompaction(err, len(t.wal.SealedSegments())+1)
		return err
	}
	if oldCovered > 0 && oldCovered != coverSeq {
		_ = t.fs.Remove(filepath.Join(t.dir, snapName(oldCovered)))
		_ = t.fs.SyncDir(t.dir)
	}
	t.m.RecordCompaction(nil, len(t.wal.SealedSegments())+1)
	return nil
}

// writeSnapshot persists the ledger as snapshot-<seq>.json with full
// write-temp + fsync + rename + directory-fsync discipline.
func (t *TrustLog) writeSnapshot(l *trust.Ledger, now time.Time, seq uint64) error {
	var ledgerBuf bytes.Buffer
	if err := l.Save(&ledgerBuf, now); err != nil {
		return fmt.Errorf("store: serializing ledger snapshot: %w", err)
	}
	blob, err := json.Marshal(snapshotFile{CoversSeq: seq, Ledger: ledgerBuf.Bytes()})
	if err != nil {
		return fmt.Errorf("store: encoding snapshot file: %w", err)
	}
	tmp := filepath.Join(t.dir, snapName(seq)+".tmp")
	f, err := t.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		t.fs.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		t.fs.Remove(tmp)
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		t.fs.Remove(tmp)
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := t.fs.Rename(tmp, filepath.Join(t.dir, snapName(seq))); err != nil {
		t.fs.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := t.fs.SyncDir(t.dir); err != nil {
		return fmt.Errorf("store: syncing dir after snapshot publish: %w", err)
	}
	return nil
}

// SealedSegments exposes the WAL's sealed segment count for compaction
// scheduling and tests.
func (t *TrustLog) SealedSegments() int { return len(t.wal.SealedSegments()) }

// Dir returns the log's directory.
func (t *TrustLog) Dir() string { return t.dir }

// Close releases the WAL handle.
func (t *TrustLog) Close() error { return t.wal.Close() }
