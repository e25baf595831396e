package trust

import (
	"sort"
	"time"
)

// Replica-tier primitives. A collector ring (internal/replica; spectrumd
// always runs one, a ring of one without peers) partitions *ingest* state
// by node ownership but replicates the durable outcomes — enrollments,
// post-epoch scores and the closed-epoch history — to every member, so
// any replica answers /api/trust and /api/fleet (RoutedHandler, one wire
// format) exactly like the single collector would.
//
// Epoch close is where the partitioning must not show: an epoch groups
// readings of one signal across many nodes, and those nodes may be owned
// by different replicas. The protocol is drain → merge → close →
// install:
//
//  1. every replica drains its matured pending epochs (DrainPending),
//  2. the coordinator merges drains per (signal, window) and runs the
//     consensus pipeline over the merged list (CloseDrained) — the exact
//     signal-ascending, window-ascending order CloseEpochs uses, so the
//     result is byte-identical to a single collector fed the same
//     readings,
//  3. every other replica installs the result (InstallClosed): history
//     appended in the same order, scores set to the coordinator's
//     absolute values, and the batch appended to its own durable store.
//
// CloseEpochs itself is DrainPending + CloseDrained, so single-node and
// merged closes cannot drift: there is only one pipeline.

// DrainPending removes every pending epoch whose window started before
// cutoff and returns them sorted by signal ascending, window ascending
// within a signal — the order the close pipeline consumes.
func (c *Collector) DrainPending(cutoff time.Time) []Epoch {
	var signals []string
	for i := range c.epochs {
		st := &c.epochs[i]
		// Skip stripes with nothing to drain: no open windows and no
		// submit since the last pass. The dirty swap is safe against a
		// concurrent submit — the submit increments `open` under the
		// stripe lock *before* setting dirty, so either we see its open
		// count here or it re-marks the stripe for the next pass.
		if !st.dirty.Swap(false) && st.open.Load() == 0 {
			continue
		}
		st.mu.Lock()
		for sig, byWindow := range st.pending {
			for w := range byWindow {
				if w.Before(cutoff) {
					signals = append(signals, sig)
					break
				}
			}
		}
		st.mu.Unlock()
	}
	sort.Strings(signals)
	var out []Epoch
	for _, sig := range signals {
		st := &c.epochs[fnv1a(sig)&c.mask]
		st.mu.Lock()
		byWindow := st.pending[sig]
		var windows []time.Time
		for w := range byWindow {
			if w.Before(cutoff) {
				windows = append(windows, w)
			}
		}
		sort.Slice(windows, func(i, j int) bool { return windows[i].Before(windows[j]) })
		for _, w := range windows {
			out = append(out, *byWindow[w])
			delete(byWindow, w)
		}
		st.open.Add(int64(-len(windows)))
		if len(byWindow) == 0 {
			delete(st.pending, sig)
		}
		st.mu.Unlock()
	}
	return out
}

// RestagePending returns drained epochs to the pending state: the
// rollback path when a drain's consumer never received them (the
// /replica/drain response failed mid-write) and the receiving side of a
// shutting-down follower handing its pending evidence to the
// coordinator. A reading that arrived for the same (signal, window,
// node) after the drain is newer and wins — restaged values fill only
// the gaps, the same last-write-wins rule Epoch ingestion applies.
func (c *Collector) RestagePending(epochs []Epoch) {
	for i := range epochs {
		e := &epochs[i]
		st := &c.epochs[fnv1a(e.SignalID)&c.mask]
		st.mu.Lock()
		byWindow, ok := st.pending[e.SignalID]
		if !ok {
			byWindow = make(map[time.Time]*Epoch)
			st.pending[e.SignalID] = byWindow
		}
		cur, ok := byWindow[e.At]
		if !ok {
			cur = &Epoch{SignalID: e.SignalID, At: e.At, Readings: make(map[NodeID]float64, len(e.Readings))}
			byWindow[e.At] = cur
			st.open.Add(1)
		}
		for id, p := range e.Readings {
			if _, exists := cur.Readings[id]; !exists {
				cur.Readings[id] = p
			}
		}
		st.mu.Unlock()
		st.markDirty()
	}
}

// MergeDrained merges per-replica drains into one close input: epochs of
// the same (signal, window) have their readings unioned, and the result
// is re-sorted into the pipeline order. Replicas partition readings by
// node, so the union is disjoint; should the same node somehow appear in
// two drains, the later drain in argument order wins — the same
// last-write-wins rule Epoch ingestion applies to a node re-submitting
// within a window. A lone drain is returned as it is: DrainPending
// already yields one epoch per (signal, window) in pipeline order.
func MergeDrained(drains ...[]Epoch) []Epoch {
	if len(drains) == 1 {
		return drains[0]
	}
	type key struct {
		sig string
		at  time.Time
	}
	merged := make(map[key]*Epoch)
	for _, drain := range drains {
		for i := range drain {
			e := drain[i]
			k := key{e.SignalID, e.At}
			m, ok := merged[k]
			if !ok {
				m = &Epoch{SignalID: e.SignalID, At: e.At, Readings: map[NodeID]float64{}}
				merged[k] = m
			}
			for id, p := range e.Readings {
				m.Readings[id] = p
			}
		}
	}
	out := make([]Epoch, 0, len(merged))
	for _, e := range merged {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SignalID != out[j].SignalID {
			return out[i].SignalID < out[j].SignalID
		}
		return out[i].At.Before(out[j].At)
	})
	return out
}

// CloseDrained runs the consensus pipeline over drained epochs (already
// in signal-ascending, window-ascending order): per epoch the upper-bound
// check, history append, correlation check over the signal's accumulated
// history, and ledger update. It flushes the resulting score batch to the
// durable store and returns the anomalies plus the final absolute score
// update per touched node, sorted by node — the broadcast a coordinator
// sends its followers for InstallClosed.
func (c *Collector) CloseDrained(cutoff time.Time, epochs []Epoch) ([]Anomaly, []ScoreUpdate) {
	var all []Anomaly
	final := make(map[NodeID]Score)
	var participants []NodeID // in no particular order: nodes are scored independently
	for i := range epochs {
		e := epochs[i]
		anomalies := c.Detector.CheckEpoch(e)
		// Archive the epoch and fold it into the signal's correlation sums
		// in one critical section: the sums are a cache of the history and
		// are only ever touched under the history's lock. Close passes are
		// single-flight (the epoch loop, or the ring coordinator), so the
		// fold is normally this one epoch; a collector that only installed
		// a coordinator's closes until now folds its backlog here, once.
		st := &c.epochs[fnv1a(e.SignalID)&c.mask]
		st.mu.Lock()
		hist := append(st.history[e.SignalID], e)
		st.history[e.SignalID] = hist
		cs := st.corr[e.SignalID]
		if cs == nil {
			cs = new(corrState)
			st.corr[e.SignalID] = cs
		}
		anomalies = append(anomalies, cs.check(c.Detector, hist)...)
		st.mu.Unlock()
		participants = participants[:0]
		for id := range e.Readings {
			participants = append(participants, id)
		}
		Apply(c.Ledger, participants, anomalies)
		c.metrics.recordEpochClosed(anomalies)
		c.metrics.recordCloseLag(cutoff, e.At)
		for _, id := range participants {
			s := c.Ledger.Trust(id)
			c.metrics.setNodeScore(id, s)
			final[id] = s
		}
		all = append(all, anomalies...)
	}
	updates := make([]ScoreUpdate, 0, len(final))
	for id, s := range final {
		updates = append(updates, ScoreUpdate{Node: id, Score: s})
	}
	sort.Slice(updates, func(i, j int) bool { return updates[i].Node < updates[j].Node })
	// One durable append (one fsync) per close pass, off the submit hot
	// path; a failure degrades the collector and the batch is retried —
	// merged with newer updates — on the next pass.
	c.flushStore(cutoff, updates)
	return all, updates
}

// InstallClosed applies a close result computed by the ring coordinator:
// the merged epochs are appended to this collector's history in the
// coordinator's order and the absolute scores are installed and appended
// to the durable store. After InstallClosed, History, Fleet and /api/trust
// answer exactly as they do on the coordinator.
func (c *Collector) InstallClosed(at time.Time, epochs []Epoch, updates []ScoreUpdate) {
	for i := range epochs {
		e := epochs[i]
		st := &c.epochs[fnv1a(e.SignalID)&c.mask]
		st.mu.Lock()
		st.history[e.SignalID] = append(st.history[e.SignalID], e)
		st.mu.Unlock()
	}
	for _, u := range updates {
		c.Ledger.SetScore(u.Node, u.Score)
		c.metrics.setNodeScore(u.Node, u.Score)
	}
	c.flushStore(at, updates)
}

// ApplyRegister applies a replicated enrollment verbatim — the Registered
// timestamp travels with the record so every replica's ledger carries the
// same value. A node already present is an idempotent success (the
// replication stream and catch-up replay overlap by design).
func (c *Collector) ApplyRegister(n Node) error {
	if _, ok := c.Ledger.Node(n.ID); ok {
		return nil
	}
	return c.registerDurable(n)
}

// FreshnessSnapshot returns every node's newest evidence timestamp. A
// replica owns the freshness of the nodes routed to it; the fleet view
// merges snapshots across replicas by taking the newest timestamp per
// node.
func (c *Collector) FreshnessSnapshot() map[NodeID]time.Time {
	out := make(map[NodeID]time.Time)
	for i := range c.fresh {
		m := c.fresh[i].m.Load()
		if m == nil {
			continue
		}
		for id, cell := range *m {
			out[id] = time.Unix(0, cell.Load()).UTC()
		}
	}
	return out
}

// HistorySignals returns every signal with closed history, sorted — the
// catch-up surface a joining replica enumerates before copying each
// signal's epochs.
func (c *Collector) HistorySignals() []string {
	var signals []string
	for i := range c.epochs {
		st := &c.epochs[i]
		st.mu.Lock()
		for sig := range st.history {
			signals = append(signals, sig)
		}
		st.mu.Unlock()
	}
	sort.Strings(signals)
	return signals
}

// InstallHistory replaces a signal's closed-epoch history — the catch-up
// path installing a live peer's view into a joining replica.
func (c *Collector) InstallHistory(signal string, epochs []Epoch) {
	st := &c.epochs[fnv1a(signal)&c.mask]
	st.mu.Lock()
	st.history[signal] = append([]Epoch(nil), epochs...)
	delete(st.corr, signal) // sums of the replaced history; the next close refolds
	st.mu.Unlock()
}
