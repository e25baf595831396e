package trust

import (
	"time"

	"sensorcal/internal/obs"
)

// Collector instrumentation. A collector is only metered after
// Instrument is called, so library users (and most tests) pay nothing;
// spectrumd instruments its collector against the registry its admin mux
// serves. All methods tolerate a nil receiver.

type collectorMetrics struct {
	readings      *obs.Counter
	readingErrors *obs.Counter
	duplicates    *obs.Counter
	epochsClosed  *obs.Counter
	anomalies     *obs.CounterVec // kind
	nodeScore     *obs.GaugeVec   // node
	httpRequests  *obs.CounterVec // endpoint, code
	submitSeconds *obs.Histogram  // per-reading ingest latency
	batchSize     *obs.Histogram  // readings per SubmitBatch call
	closeLag      *obs.Histogram  // epoch age at close (cutoff − window start)
	storeErrors   *obs.Counter    // durable appends that failed
	shedTotal     *obs.Counter    // requests shed while the store is degraded
	decodeSlow    *obs.Counter    // /api/readings elements decoded by encoding/json
}

// Instrument registers the collector's metrics on reg (the process-wide
// default when nil) and starts recording. It returns c for chaining.
//
// Exposed series:
//
//	trust_readings_total         — readings accepted into epochs
//	trust_reading_errors_total   — readings rejected (unknown node, bad payload)
//	trust_duplicate_readings_total — retried readings dropped by idempotency-key dedup
//	trust_epochs_closed_total    — consensus epochs finalized
//	trust_anomalies_total{kind}  — consensus violations by detector kind
//	trust_node_score{node}       — current ledger trust score per node
//	trust_nodes_registered       — ledger size (scrape-time callback)
//	trust_pending_epochs         — open epochs awaiting closure (callback)
//	trust_http_requests_total{endpoint} — API traffic
//	trust_readings_decode_fallback_total — /api/readings elements the fast decoder declined
//	collector_submit_seconds     — per-reading ingest latency histogram
//	collector_submit_batch_size  — readings per SubmitBatch call
//	collector_epoch_close_lag_seconds — epoch age (cutoff − window start) at close
func (c *Collector) Instrument(reg *obs.Registry) *Collector {
	if reg == nil {
		reg = obs.Default()
	}
	m := &collectorMetrics{
		readings: reg.Counter("trust_readings_total",
			"Shared-signal readings accepted into consensus epochs."),
		readingErrors: reg.Counter("trust_reading_errors_total",
			"Readings rejected before reaching an epoch."),
		duplicates: reg.Counter("trust_duplicate_readings_total",
			"Retried readings dropped by idempotency-key deduplication."),
		epochsClosed: reg.Counter("trust_epochs_closed_total",
			"Consensus epochs finalized by the collector."),
		anomalies: reg.CounterVec("trust_anomalies_total",
			"Consensus violations detected, by detector kind.", "kind"),
		nodeScore: reg.GaugeVec("trust_node_score",
			"Current trust ledger score per node (0 = fabricator, 1 = clean).", "node"),
		httpRequests: reg.CounterVec("trust_http_requests_total",
			"Collector API requests served, by endpoint.", "endpoint"),
		submitSeconds: reg.Histogram("collector_submit_seconds",
			"Latency of one reading through the collector ingest path.",
			obs.ExpBuckets(250e-9, 4, 10)),
		batchSize: reg.Histogram("collector_submit_batch_size",
			"Readings per SubmitBatch call — how much lock amortization the batched ingest path actually gets.",
			obs.ExpBuckets(1, 2, 12)),
		closeLag: reg.Histogram("collector_epoch_close_lag_seconds",
			"Age of an epoch when the closer finalizes it: close cutoff minus the epoch window start.",
			obs.ExpBuckets(0.25, 2, 14)),
		storeErrors: reg.Counter("trust_store_append_failures_total",
			"Durable store appends (registrations, epoch-close score batches) that failed."),
		shedTotal: reg.Counter("trust_store_shed_total",
			"Mutating API requests shed with 503 while the durable store was degraded."),
		decodeSlow: reg.Counter("trust_readings_decode_fallback_total",
			"/api/readings elements the plain-object fast path declined and encoding/json decoded (escapes, non-ASCII, unknown or repeated keys, null, malformed); 0 for a fleet of trust.Client agents."),
	}
	reg.GaugeFunc("collector_store_degraded",
		"1 while the durable store is erroring and mutating traffic is shed, else 0.",
		func() float64 {
			if c.StoreDegraded() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("collector_store_lag_updates",
		"Score updates applied in memory but still awaiting a durable append.",
		func() float64 { return float64(c.StoreLag()) })
	// Pre-seed the detector kinds so the series exist at zero instead of
	// appearing only after the first violation.
	m.anomalies.With("over-consensus-power")
	m.anomalies.With("uncorrelated-with-consensus")
	reg.GaugeFunc("trust_nodes_registered",
		"Nodes enrolled in the trust ledger.",
		func() float64 { return float64(c.Ledger.Len()) })
	reg.GaugeFunc("trust_pending_epochs",
		"Open consensus epochs not yet past the closing cutoff.",
		func() float64 { return float64(c.PendingEpochs()) })
	c.metrics = m
	return c
}

func (m *collectorMetrics) recordSubmit(duplicate bool, err error) {
	if m == nil {
		return
	}
	switch {
	case err != nil:
		m.readingErrors.Inc()
	case duplicate:
		m.duplicates.Inc()
	default:
		m.readings.Inc()
	}
}

func (m *collectorMetrics) recordEpochClosed(anomalies []Anomaly) {
	if m == nil {
		return
	}
	m.epochsClosed.Inc()
	for _, a := range anomalies {
		m.anomalies.With(a.Kind).Inc()
	}
}

// recordCloseLag observes how old an epoch was when it closed. Measured
// against the close cutoff (not wall time) so the number is deterministic
// and means the same thing on the coordinator merge path, a follower
// install, and a bench replay with synthetic timestamps.
func (m *collectorMetrics) recordCloseLag(cutoff, windowStart time.Time) {
	if m == nil {
		return
	}
	if lag := cutoff.Sub(windowStart).Seconds(); lag >= 0 {
		m.closeLag.Observe(lag)
	}
}

func (m *collectorMetrics) setNodeScore(id NodeID, s Score) {
	if m == nil {
		return
	}
	m.nodeScore.With(string(id)).Set(float64(s))
}

func (m *collectorMetrics) recordRequest(endpoint string) {
	if m == nil {
		return
	}
	m.httpRequests.With(endpoint).Inc()
}

func (m *collectorMetrics) recordStoreAppendError() {
	if m == nil {
		return
	}
	m.storeErrors.Inc()
}

func (m *collectorMetrics) recordShed() {
	if m == nil {
		return
	}
	m.shedTotal.Inc()
}

func (m *collectorMetrics) recordDecodeFallback() {
	if m == nil {
		return
	}
	m.decodeSlow.Inc()
}
