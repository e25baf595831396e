package stream

import (
	"sensorcal/internal/obs"
)

// Per-stage instrumentation of the streaming pipeline: ingest (frames
// accepted/shed and why), batching (batch counts and fill), the two
// processing stages (batched FFT, aggregation fold) and the end-to-end
// frame latency from enqueue to folded. Together with the RED middleware
// on the HTTP surface this answers the operator questions in order:
// is the fleet being shed (backpressure), is the engine keeping up
// (batch fill + stage times), and what does a frame's journey cost
// (latency histogram).
type serviceMetrics struct {
	framesIngested *obs.Counter
	framesDone     *obs.Counter
	framesShed     *obs.CounterVec
	batches        *obs.Counter
	batchSize      *obs.Histogram
	fftSeconds     *obs.Histogram
	foldSeconds    *obs.Histogram
	frameLatency   *obs.Histogram
	occQueries     *obs.Counter
	evictions      *obs.Counter
	tombstoneFolds *obs.Counter
	foldDBFallback *obs.Counter
}

// Shed reasons, the label values of stream_frames_shed_total.
const (
	shedQueue     = "queue"     // bounded frame queue full
	shedSessions  = "sessions"  // session table at capacity
	shedMalformed = "malformed" // frame length/rate invalid
	shedBand      = "band"      // frame outside the monitored band
	shedDegraded  = "degraded"  // aggregation breaker open
)

func newServiceMetrics(reg *obs.Registry, table *SessionTable, queueDepth func() float64) *serviceMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	m := &serviceMetrics{
		framesIngested: reg.Counter("stream_frames_ingested_total",
			"IQ frames accepted into the streaming queue."),
		framesDone: reg.Counter("stream_frames_processed_total",
			"Frames that completed the batched FFT and aggregation fold."),
		framesShed: reg.CounterVec("stream_frames_shed_total",
			"Frames shed instead of processed, by reason.", "reason"),
		batches: reg.Counter("stream_batches_total",
			"Batches dispatched through the shared engine."),
		batchSize: reg.Histogram("stream_batch_size",
			"Frames per dispatched batch: what was queued when the dispatcher came back, up to the batch cap — fill near 1 means it keeps ahead of the offered load, fill at the cap means a backlog.",
			obs.ExpBuckets(1, 2, 12)),
		fftSeconds: reg.Histogram("stream_fft_stage_seconds",
			"Batched FFT stage wall time per batch.", obs.DurationBuckets),
		foldSeconds: reg.Histogram("stream_fold_stage_seconds",
			"Aggregation fold stage wall time per batch.", obs.DurationBuckets),
		frameLatency: reg.Histogram("stream_frame_latency_seconds",
			"Frame latency from ingest enqueue to aggregation fold.", obs.DurationBuckets),
		occQueries: reg.Counter("stream_occupancy_queries_total",
			"Occupancy API queries served."),
		evictions: reg.Counter("stream_sessions_evicted_total",
			"Sensor sessions evicted after going idle."),
		tombstoneFolds: reg.Counter("stream_tombstone_folds_total",
			"In-flight frames whose session aggregation landed on an already-evicted tombstone."),
		foldDBFallback: reg.Counter("stream_fold_db_fallback_total",
			"Frames the power-domain fold could not decide with margin and folded through the dBFS path instead."),
	}
	reg.GaugeFunc("stream_sessions_active",
		"Sensor sessions currently registered.",
		func() float64 { return float64(table.Len()) })
	reg.GaugeFunc("stream_queue_depth",
		"Frames waiting in the bounded ingest queue.", queueDepth)
	return m
}
