package trust

import (
	"sync"
	"time"

	"sensorcal/internal/hash"
	"sensorcal/internal/obs"
)

// Batched per-stripe submit: the collector's one ingest body. Taking up
// to three stripe locks per reading makes an HTTP batch of 1000 readings
// 3000 lock round-trips even when every reading lands in the same
// handful of stripes. The batch path regroups the readings by stripe
// with a counting sort and takes each stripe lock once per batch,
// turning the lock cost from O(readings) into O(stripes touched). Within
// each stripe the readings are processed in their original batch order
// and the stripes are disjoint by construction, so the final collector
// state — dedup ring contents, freshness, epoch maps — is byte-identical
// to feeding the same slice one reading at a time through the
// per-reading reference body kept in submit_oracle_test.go (pinned by
// TestSubmitBatchOutcomes and TestShardedCollectorEquivalence).

// SubmitOutcome is one reading's result within a SubmitBatch call,
// positionally matching the input slice. Duplicate and Err mirror
// SubmitDedup's two results; both false/nil means accepted.
type SubmitOutcome struct {
	Duplicate bool
	Err       error
}

// batch-phase flags, one byte per reading in batchScratch.flags.
const (
	flagNeedDedup = 1 << iota // keyed, not a fast-path duplicate: needs the stripe lock
	flagAccepted              // survived validation + dedup: touches freshness + epoch
)

// batchScratch is the pooled regrouping state for one SubmitBatch call:
// per-reading hashes and flags plus the counting-sort bins and output
// order. Nothing here escapes the call, so the steady-state batch path
// adds zero allocations over the per-reading path.
type batchScratch struct {
	hashes []uint64
	flags  []uint8
	order  []int32 // reading indices, grouped contiguously by stripe
	bins   []int32 // per-stripe segment bounds (len = stripes + 1)
	spans  []spanAt
}

// spanAt pairs a sampled reading's index with its open ingest span so
// the traced readings can be finalized after their outcome is known. At
// a sample ratio of 1 that is every reading carrying a traceparent.
type spanAt struct {
	idx  int32
	span *obs.Span
}

var batchScratchPool = sync.Pool{New: func() interface{} { return new(batchScratch) }}

// grow returns s sized for n elements without shrinking capacity.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// SubmitBatch ingests a batch of readings, writing one outcome per
// reading into outs (grown as needed; pass nil or a previous call's
// slice to reuse its backing array) and returning it. Each reading is
// validated, deduplicated, counted for freshness and placed in its epoch
// independently of its neighbours, but each touched stripe lock is taken
// once per batch instead of once per reading. The /api/readings handler
// (both wire forms), the replica router's local partition and
// Submit/SubmitDedup all ingest through this one entry point.
func (c *Collector) SubmitBatch(rs []Reading, outs []SubmitOutcome) []SubmitOutcome {
	if cap(outs) < len(rs) {
		outs = make([]SubmitOutcome, len(rs))
	} else {
		outs = outs[:len(rs)]
		for i := range outs {
			outs[i] = SubmitOutcome{}
		}
	}
	if len(rs) == 0 {
		return outs
	}
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer func() {
		sc.spans = sc.spans[:0]
		batchScratchPool.Put(sc)
	}()
	n := len(rs)
	if cap(sc.hashes) < n {
		sc.hashes = make([]uint64, n)
		sc.flags = make([]uint8, n)
	} else {
		sc.hashes = sc.hashes[:n]
		sc.flags = sc.flags[:n]
	}
	sc.order = grow32(sc.order, n)
	stripes := len(c.dedups)
	sc.bins = grow32(sc.bins, stripes+1)

	// Phase 1 — validate every reading, open spans for the traced ones
	// (every reading with a sampled traceparent), and try the lock-free
	// dedup fast path. Readings that need the authoritative locked check
	// are counted per dedup stripe. A reading carrying its origin's
	// traceparent gets an ingest span parented into that trace — the link
	// that survives hours in the agent's spool; unsampled origins make
	// StartRemote return nil.
	for i := range sc.bins {
		sc.bins[i] = 0
	}
	for i := range rs {
		r := &rs[i]
		sc.flags[i] = 0
		if r.Trace != "" {
			if psc, ok := obs.ParseTraceParent(r.Trace); ok {
				if span := c.tracer().StartRemote(psc, "trust.ingest"); span != nil {
					span.SetAttr("node", string(r.Node))
					span.SetAttr("signal", r.SignalID)
					sc.spans = append(sc.spans, spanAt{idx: int32(i), span: span})
				}
			}
		}
		if err := c.validate(r); err != nil {
			outs[i].Err = err
			continue
		}
		if r.Key == "" {
			sc.flags[i] = flagAccepted
			continue
		}
		h := fnv1a(r.Key)
		sc.hashes[i] = h
		if c.dedups[h&c.mask].fastDup(hash.Mix64(h), r.Key) {
			outs[i].Duplicate = true
			continue
		}
		sc.flags[i] = flagNeedDedup
		sc.bins[h&c.mask]++
	}

	// Phase 2 — authoritative dedup, one lock per touched stripe. The
	// counting sort groups reading indices contiguously per stripe while
	// preserving batch order within a stripe, so a key retried twice in
	// one batch dedups exactly as it would submitted serially.
	c.groupByStripe(sc, func(i int) bool { return sc.flags[i]&flagNeedDedup != 0 })
	limit := c.dedupLimit()
	for s := 0; s < stripes; s++ {
		lo, hi := sc.bins[s], sc.bins[s+1]
		if lo == hi {
			continue
		}
		d := &c.dedups[s]
		d.mu.Lock()
		for _, idx := range sc.order[lo:hi] {
			key := rs[idx].Key
			if d.dup(key) {
				outs[idx].Duplicate = true
				continue
			}
			d.remember(hash.Mix64(sc.hashes[idx]), key, limit)
			sc.flags[idx] |= flagAccepted
		}
		d.mu.Unlock()
	}

	// Phase 3 — freshness, the staleness signal the measurement scheduler
	// plans from: reading time, not arrival time, so a spool replay of old
	// readings does not fake freshness. Lock-free per reading (CAS-max),
	// so no regrouping is worth it; order across readings of one node does
	// not matter because max() is commutative.
	for i := range rs {
		if sc.flags[i]&flagAccepted != 0 {
			r := &rs[i]
			c.fresh[fnv1a(string(r.Node))&c.mask].touch(r.Node, r.At)
		}
	}

	// Phase 4 — epoch placement, one lock per touched stripe. Within a
	// stripe the original order is preserved, so a node re-submitting in
	// the same window last-write-wins exactly as the serial path does.
	for i := range rs {
		if sc.flags[i]&flagAccepted != 0 {
			sc.hashes[i] = fnv1a(rs[i].SignalID)
		}
	}
	c.groupByStripe(sc, func(i int) bool { return sc.flags[i]&flagAccepted != 0 })
	for s := 0; s < stripes; s++ {
		lo, hi := sc.bins[s], sc.bins[s+1]
		if lo == hi {
			continue
		}
		st := &c.epochs[s]
		st.mu.Lock()
		for _, idx := range sc.order[lo:hi] {
			r := &rs[idx]
			st.insertLocked(r.SignalID, r.At.Truncate(c.EpochWindow), r.Node, r.PowerDBm)
		}
		st.mu.Unlock()
		st.markDirty()
	}

	// Finalize spans and metrics.
	for _, sa := range sc.spans {
		o := outs[sa.idx]
		if o.Err != nil {
			sa.span.SetError(o.Err)
		}
		if o.Duplicate {
			sa.span.SetAttr("duplicate", "true")
		}
		sa.span.End()
	}
	if m := c.metrics; m != nil {
		for i := range outs {
			m.recordSubmit(outs[i].Duplicate, outs[i].Err)
		}
		m.batchSize.Observe(float64(n))
		// One amortized per-reading observation per batch keeps the
		// histogram's unit ("one reading through ingest") comparable with
		// the serial path without n duplicate samples.
		m.submitSeconds.Observe(time.Since(start).Seconds() / float64(n))
	}
	return outs
}

// groupByStripe counting-sorts the indices selected by keep into
// sc.order, contiguous per stripe and batch-ordered within a stripe.
// sc.hashes[i] must hold the stripe hash for every kept i. On return
// sc.bins[s]..sc.bins[s+1] bound stripe s's segment in sc.order.
func (c *Collector) groupByStripe(sc *batchScratch, keep func(int) bool) {
	for i := range sc.bins {
		sc.bins[i] = 0
	}
	n := len(sc.flags)
	for i := 0; i < n; i++ {
		if keep(i) {
			sc.bins[sc.hashes[i]&c.mask]++
		}
	}
	// Prefix-sum the counts into segment starts…
	sum := int32(0)
	for s := range sc.bins {
		cnt := sc.bins[s]
		sc.bins[s] = sum
		sum += cnt
	}
	// …place the indices (bins walks forward to each segment's end)…
	for i := 0; i < n; i++ {
		if keep(i) {
			s := sc.hashes[i] & c.mask
			sc.order[sc.bins[s]] = int32(i)
			sc.bins[s]++
		}
	}
	// …and shift bins back so bins[s] is the segment start again.
	prev := int32(0)
	for s := range sc.bins {
		sc.bins[s], prev = prev, sc.bins[s]
	}
}
