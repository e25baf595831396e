package resilience

import (
	"sensorcal/internal/obs"
)

// Instrumentation. As elsewhere in the codebase, metrics are opt-in:
// a Retrier/Breaker/Spool records nothing until Instrument is called, and
// every record method tolerates a nil receiver so library users and most
// tests pay a single nil check.

type retrierMetrics struct {
	attempts *obs.CounterVec // op
	retries  *obs.CounterVec // op
	giveups  *obs.CounterVec // op
}

// Instrument registers the retrier's metrics on reg (the process-wide
// default when nil) and returns r for chaining.
//
// Exposed series:
//
//	resilience_attempts_total{op} — individual attempts started
//	resilience_retries_total{op}  — backoff sleeps taken (attempts − firsts − giveups)
//	resilience_giveups_total{op}  — operations abandoned (exhausted, permanent error, budget)
func (r *Retrier) Instrument(reg *obs.Registry) *Retrier {
	if reg == nil {
		reg = obs.Default()
	}
	// Atomic store: Instrument may run while another goroutine is inside
	// Do (the race detector flagged the previous plain write).
	r.m.Store(&retrierMetrics{
		attempts: reg.CounterVec("resilience_attempts_total",
			"Individual attempts started under a retry policy, by operation.", "op"),
		retries: reg.CounterVec("resilience_retries_total",
			"Retries taken after a failed attempt, by operation.", "op"),
		giveups: reg.CounterVec("resilience_giveups_total",
			"Operations abandoned after exhausting the retry policy, by operation.", "op"),
	})
	return r
}

func (m *retrierMetrics) recordAttempt(op string) {
	if m == nil {
		return
	}
	m.attempts.With(op).Inc()
}

func (m *retrierMetrics) recordRetry(op string) {
	if m == nil {
		return
	}
	m.retries.With(op).Inc()
}

func (m *retrierMetrics) recordGiveUp(op string) {
	if m == nil {
		return
	}
	m.giveups.With(op).Inc()
}

type breakerMetrics struct {
	state    *obs.GaugeVec   // name
	rejected *obs.CounterVec // name
}

// Instrument registers the breaker's metrics on reg (the process-wide
// default when nil) and returns b for chaining.
//
// Exposed series:
//
//	resilience_breaker_state{name}          — 0 closed, 1 open, 2 half-open
//	resilience_breaker_rejected_total{name} — requests failed fast by the open circuit
func (b *Breaker) Instrument(reg *obs.Registry) *Breaker {
	if reg == nil {
		reg = obs.Default()
	}
	// b.m and b.state are guarded by b.mu everywhere else (Allow, Record,
	// setState); writing them unlocked here raced with in-flight calls.
	m := &breakerMetrics{
		state: reg.GaugeVec("resilience_breaker_state",
			"Circuit breaker position: 0 closed, 1 open, 2 half-open.", "name"),
		rejected: reg.CounterVec("resilience_breaker_rejected_total",
			"Requests rejected fast while the circuit was open.", "name"),
	}
	b.mu.Lock()
	b.m = m
	m.setState(b.cfg.Name, b.state)
	b.mu.Unlock()
	return b
}

// stateValue maps states to stable gauge values (documented above).
func stateValue(s BreakerState) float64 {
	switch s {
	case Open:
		return 1
	case HalfOpen:
		return 2
	default:
		return 0
	}
}

func (m *breakerMetrics) setState(name string, s BreakerState) {
	if m == nil {
		return
	}
	m.state.With(name).Set(stateValue(s))
}

func (m *breakerMetrics) recordRejected(name string) {
	if m == nil {
		return
	}
	m.rejected.With(name).Inc()
}

type spoolMetrics struct {
	depth    *obs.GaugeVec   // name
	appends  *obs.CounterVec // name
	acks     *obs.CounterVec // name
	replayed *obs.CounterVec // name
	dropped  *obs.CounterVec // name
}

// Instrument registers the spool's metrics on reg (the process-wide
// default when nil) and returns s for chaining.
//
// Exposed series:
//
//	resilience_spool_depth{name}          — records appended but not yet acked
//	resilience_spool_appends_total{name}  — records durably appended
//	resilience_spool_acks_total{name}     — records acknowledged (drained)
//	resilience_spool_replayed_total{name} — records recovered from the WAL at open
//	resilience_spool_dropped_total{name}  — torn bytes truncated from the WAL's tail at open
func (s *Spool) Instrument(reg *obs.Registry) *Spool {
	if reg == nil {
		reg = obs.Default()
	}
	// s.m is read under s.mu by every record path; the depth snapshot
	// reads len(s.pending) directly (s.Len() would self-deadlock here).
	m := &spoolMetrics{
		depth: reg.GaugeVec("resilience_spool_depth",
			"Store-and-forward records awaiting acknowledgement.", "name"),
		appends: reg.CounterVec("resilience_spool_appends_total",
			"Records durably appended to the spool WAL.", "name"),
		acks: reg.CounterVec("resilience_spool_acks_total",
			"Spool records acknowledged after successful delivery.", "name"),
		replayed: reg.CounterVec("resilience_spool_replayed_total",
			"Unacked records recovered from the WAL at open.", "name"),
		dropped: reg.CounterVec("resilience_spool_dropped_total",
			"Torn bytes truncated from the spool WAL's tail during recovery.", "name"),
	}
	s.mu.Lock()
	s.m = m
	m.record(s.name, 0, 0, len(s.pending))
	m.replayed.With(s.name).Add(float64(s.replayed))
	m.dropped.With(s.name).Add(float64(s.torn))
	s.mu.Unlock()
	return s
}

// record counts appended and acked records and sets the depth.
func (m *spoolMetrics) record(name string, appended, acked, depth int) {
	if m == nil {
		return
	}
	m.appends.With(name).Add(float64(appended))
	m.acks.With(name).Add(float64(acked))
	m.depth.With(name).Set(float64(depth))
}
