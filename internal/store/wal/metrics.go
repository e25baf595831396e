package wal

import (
	"time"

	"sensorcal/internal/obs"
)

// Metrics is the WAL's observability surface. A nil *Metrics is a valid
// no-op receiver, so library users and most tests pay nothing.
//
// Exposed series:
//
//	store_wal_appends_total        — records durably appended
//	store_wal_append_errors_total  — appends that failed (write or fsync)
//	store_wal_fsync_seconds        — fsync latency histogram
//	store_wal_fsync_errors_total   — fsyncs that returned an error
//	store_wal_rotations_total      — segment rolls
//	store_wal_compactions_total    — snapshot compactions completed
//	store_wal_compaction_errors_total — compactions that failed midway
//	store_wal_torn_bytes_total     — bytes truncated from torn tails at recovery
//	store_wal_replayed_records_total — records replayed into the ledger at recovery
//	store_wal_segments             — segment files currently on disk
//	store_wal_active_bytes         — size of the active (tail) segment
//	store_wal_last_sync_unix       — wall time of the last successful fsync
type Metrics struct {
	appends       *obs.Counter
	appendErrors  *obs.Counter
	fsyncSeconds  *obs.Histogram
	fsyncErrors   *obs.Counter
	rotations     *obs.Counter
	compactions   *obs.Counter
	compactErrors *obs.Counter
	tornBytes     *obs.Counter
	replayed      *obs.Counter
	segments      *obs.Gauge
	activeBytes   *obs.Gauge
	lastSyncUnix  *obs.Gauge
}

// NewMetrics registers the WAL series on reg (the process-wide default
// when nil).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &Metrics{
		appends: reg.Counter("store_wal_appends_total",
			"Records durably appended to the segment WAL."),
		appendErrors: reg.Counter("store_wal_append_errors_total",
			"WAL appends that failed (short write or fsync error)."),
		fsyncSeconds: reg.Histogram("store_wal_fsync_seconds",
			"Latency of WAL fsync calls.", obs.ExpBuckets(50e-6, 4, 10)),
		fsyncErrors: reg.Counter("store_wal_fsync_errors_total",
			"WAL fsyncs that returned an error."),
		rotations: reg.Counter("store_wal_rotations_total",
			"Segment rolls (active segment sealed, fresh tail started)."),
		compactions: reg.Counter("store_wal_compactions_total",
			"Snapshot compactions that folded sealed segments into a snapshot."),
		compactErrors: reg.Counter("store_wal_compaction_errors_total",
			"Snapshot compactions that failed before pruning."),
		tornBytes: reg.Counter("store_wal_torn_bytes_total",
			"Bytes truncated from torn segment tails during recovery."),
		replayed: reg.Counter("store_wal_replayed_records_total",
			"WAL records replayed at recovery."),
		segments: reg.Gauge("store_wal_segments",
			"Segment files currently on disk (sealed + active)."),
		activeBytes: reg.Gauge("store_wal_active_bytes",
			"Bytes in the active (tail) segment."),
		lastSyncUnix: reg.Gauge("store_wal_last_sync_unix",
			"Unix time of the last successful WAL fsync."),
	}
}

func (m *Metrics) recordAppend(bytes int64) {
	if m == nil {
		return
	}
	m.appends.Inc()
	m.activeBytes.Add(float64(bytes))
}

func (m *Metrics) recordAppendError() {
	if m == nil {
		return
	}
	m.appendErrors.Inc()
}

func (m *Metrics) recordFsync(d time.Duration, err error) {
	if m == nil {
		return
	}
	m.fsyncSeconds.Observe(d.Seconds())
	if err != nil {
		m.fsyncErrors.Inc()
	} else {
		m.lastSyncUnix.Set(float64(time.Now().Unix()))
	}
}

func (m *Metrics) recordRotation(segments int) {
	if m == nil {
		return
	}
	m.rotations.Inc()
	m.segments.Set(float64(segments))
	m.activeBytes.Set(0)
}

func (m *Metrics) recordCompaction(err error, segments int) {
	if m == nil {
		return
	}
	if err != nil {
		m.compactErrors.Inc()
		return
	}
	m.compactions.Inc()
	m.segments.Set(float64(segments))
}

func (m *Metrics) recordRecovery(tornBytes int64, replayed int, segments int, activeBytes int64) {
	if m == nil {
		return
	}
	m.tornBytes.Add(float64(tornBytes))
	m.replayed.Add(float64(replayed))
	m.segments.Set(float64(segments))
	m.activeBytes.Set(float64(activeBytes))
}
