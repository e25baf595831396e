package wal

import "fmt"

// The two entry points the trust log in internal/store needs beyond the
// log's own API: its catch-up stream reads a frozen prefix of sealed
// segments one at a time, and its snapshot compaction is metered on the
// WAL's Metrics.

// ScanSealed streams the records of sealed segment seq into fn in append
// order. A sealed segment is immutable, so a scan that stops before its
// end is disk damage and an error — the same rule ReplayFrom applies.
func (w *WAL) ScanSealed(seq uint64, fn func(payload []byte) error) (int, error) {
	good, n, err := w.scanSegment(seq, fn)
	if err != nil {
		return n, err
	}
	size, err := w.fs.Size(join(w.dir, segName(seq)))
	if err != nil {
		return n, fmt.Errorf("store: sizing sealed segment: %w", err)
	}
	if good < size {
		return n, fmt.Errorf("store: sealed segment %s corrupt at offset %d", segName(seq), good)
	}
	return n, nil
}

// RecordCompaction counts one snapshot compaction: completed when err is
// nil, leaving segments files on disk; failed otherwise.
func (m *Metrics) RecordCompaction(err error, segments int) { m.recordCompaction(err, segments) }
