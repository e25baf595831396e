package trust

import (
	"sync"
	"time"
)

// Background epoch closer. CloseEpochs does the collector's heavy
// lifting — stripe scans, consensus checks, correlation over history,
// durable score appends — and historically every embedder (spectrumd's
// epoch loop, the bench harness, tests) rolled its own goroutine around
// it. The closer is that goroutine, owned by the collector: submit only
// appends to pending state and flips a stripe dirty-mark, and the
// closer's drain pass visits only stripes the marks (or a nonzero
// open-window count) say have work. One implementation, injectable
// clocks for simulated time, and a pluggable Run hook so the replica
// coordinator's merge-close rides the same cadence machinery.

// CloserConfig configures StartCloser.
type CloserConfig struct {
	// Interval is the close cadence; it must be positive.
	Interval time.Duration
	// Lag is how far behind now the close cutoff trails, so a window
	// still receiving readings is not closed under them. Zero means
	// Interval (the common "close windows one period old" policy).
	Lag time.Duration
	// Now and After inject the clock; nil means time.Now / time.After.
	// spectrumd passes its clock.Clock hooks so simulated-time tests
	// drive the closer deterministically.
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
	// Run performs one close pass at the computed cutoff; nil means the
	// collector's own CloseEpochs. spectrumd substitutes its
	// replica-aware pass (coordinator merge-close or follower no-op)
	// plus persistence.
	Run func(cutoff time.Time) []Anomaly
	// OnAnomalies, when non-nil, receives each pass's non-empty anomaly
	// list — the logging/alerting hook.
	OnAnomalies func([]Anomaly)
}

// Closer is a running background epoch closer.
type Closer struct {
	stop     chan struct{}
	done     chan struct{}
	kick     chan struct{}
	stopOnce sync.Once
}

// StartCloser launches the collector's background close loop and
// returns its handle. The loop runs one close pass every Interval (or
// sooner when kicked) until Stop.
func (c *Collector) StartCloser(cfg CloserConfig) *Closer {
	if cfg.Interval <= 0 {
		panic("trust: StartCloser needs a positive Interval")
	}
	if cfg.Lag == 0 {
		cfg.Lag = cfg.Interval
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	after := cfg.After
	if after == nil {
		after = time.After
	}
	run := cfg.Run
	if run == nil {
		run = c.CloseEpochs
	}
	cl := &Closer{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		kick: make(chan struct{}, 1),
	}
	go func() {
		defer close(cl.done)
		for {
			select {
			case <-cl.stop:
				return
			case <-after(cfg.Interval):
			case <-cl.kick:
			}
			anomalies := run(now().Add(-cfg.Lag))
			if cfg.OnAnomalies != nil && len(anomalies) > 0 {
				cfg.OnAnomalies(anomalies)
			}
		}
	}()
	return cl
}

// Kick schedules an immediate close pass without waiting for the next
// tick. Non-blocking; kicks coalesce with an already-pending one.
func (cl *Closer) Kick() {
	select {
	case cl.kick <- struct{}{}:
	default:
	}
}

// Stop halts the loop and waits for an in-flight pass to finish. The
// closer does not run a final pass: a shutting-down embedder decides
// itself whether trailing windows should close early (spectrumd flushes
// them explicitly so restarts do not double-close).
func (cl *Closer) Stop() {
	cl.stopOnce.Do(func() { close(cl.stop) })
	<-cl.done
}
