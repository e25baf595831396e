package trust

import (
	"time"

	"sensorcal/internal/hash"
	"sensorcal/internal/obs"
)

// oracleSubmitDedup is the per-reading ingest body Collector.SubmitDedup
// had before it became a one-element SubmitBatch: validate, lock-free
// then locked dedup, freshness, epoch insert — one stripe lock per phase
// per reading, with its own metrics and span handling. It stays here as
// the reference the batched entry point is compared against
// (TestSubmitBatchOutcomes, TestShardedCollectorEquivalence,
// TestSubmitSingleMatchesOracle); production has the one body in
// batch.go.
func oracleSubmitDedup(c *Collector, r Reading) (duplicate bool, err error) {
	defer func() { c.metrics.recordSubmit(duplicate, err) }()
	if m := c.metrics; m != nil {
		start := time.Now()
		defer func() { m.submitSeconds.Observe(time.Since(start).Seconds()) }()
	}
	if r.Trace != "" {
		if psc, ok := obs.ParseTraceParent(r.Trace); ok {
			if span := c.tracer().StartRemote(psc, "trust.ingest"); span != nil {
				span.SetAttr("node", string(r.Node))
				span.SetAttr("signal", r.SignalID)
				defer func() {
					if err != nil {
						span.SetError(err)
					}
					if duplicate {
						span.SetAttr("duplicate", "true")
					}
					span.End()
				}()
			}
		}
	}
	if err := c.validate(&r); err != nil {
		return false, err
	}
	if r.Key != "" {
		h := fnv1a(r.Key)
		d := &c.dedups[h&c.mask]
		slot := hash.Mix64(h)
		if d.fastDup(slot, r.Key) {
			return true, nil
		}
		d.mu.Lock()
		if d.dup(r.Key) {
			d.mu.Unlock()
			return true, nil
		}
		d.remember(slot, r.Key, c.dedupLimit())
		d.mu.Unlock()
	}
	c.fresh[fnv1a(string(r.Node))&c.mask].touch(r.Node, r.At)
	window := r.At.Truncate(c.EpochWindow)
	st := &c.epochs[fnv1a(r.SignalID)&c.mask]
	st.mu.Lock()
	st.insertLocked(r.SignalID, window, r.Node, r.PowerDBm)
	st.mu.Unlock()
	st.markDirty()
	return false, nil
}
