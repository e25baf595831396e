package sched

import (
	"sensorcal/internal/obs"
)

// Queue instrumentation: the sched_* series a schedd operator watches.
// Depth gauges are scrape-time callbacks, so the hot lease/complete path
// pays only counter increments.

type queueMetrics struct {
	enqueued      *obs.Counter
	leased        *obs.Counter
	completed     *obs.Counter
	duplicates    *obs.Counter
	requeued      *obs.Counter
	expired       *obs.Counter
	leaseAge      *obs.Histogram
	taskLatency   *obs.Histogram
	forecastYield *obs.Histogram
}

func newQueueMetrics(reg *obs.Registry) *queueMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &queueMetrics{
		enqueued: reg.Counter("sched_tasks_enqueued_total",
			"Measurement tasks accepted into the work queue (idempotent adds excluded)."),
		leased: reg.Counter("sched_leases_granted_total",
			"Leases granted to polling agents."),
		completed: reg.Counter("sched_tasks_completed_total",
			"Tasks completed exactly once."),
		duplicates: reg.Counter("sched_duplicate_completions_total",
			"Completions acknowledged as duplicates of an already-finished task."),
		requeued: reg.Counter("sched_tasks_requeued_total",
			"Leases that expired and returned their task to the queue."),
		expired: reg.Counter("sched_tasks_expired_total",
			"Tasks dropped because their measurement window passed unexecuted."),
		leaseAge: reg.Histogram("sched_lease_age_seconds",
			"Age of a lease at completion (grant to Complete).",
			obs.ExpBuckets(1, 4, 10)),
		taskLatency: reg.Histogram("sched_task_latency_seconds",
			"Task lifetime from enqueue to completion.",
			obs.ExpBuckets(1, 4, 12)),
		forecastYield: reg.Histogram("sched_forecast_yield",
			"Forecast expected-aircraft yield of each enqueued window.",
			[]float64{0.5, 1, 2, 5, 10, 20, 40, 80}),
	}
}

// registerDepth exports the queue's live depth as scrape-time gauges.
func (m *queueMetrics) registerDepth(reg *obs.Registry, stats func() QueueStats) {
	if reg == nil {
		reg = obs.Default()
	}
	reg.GaugeFunc("sched_queue_depth",
		"Tasks awaiting lease.",
		func() float64 { return float64(stats().Pending) })
	reg.GaugeFunc("sched_leases_outstanding",
		"Tasks currently leased to an agent.",
		func() float64 { return float64(stats().Leased) })
}
