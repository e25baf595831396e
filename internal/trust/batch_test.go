package trust

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sensorcal/internal/obs"
)

// TestSubmitBatchOutcomes pins the per-reading contract: SubmitBatch's
// outcome slice must equal, position by position, what N sequential
// oracleSubmitDedup calls would have returned for the same slice — across
// rejects (unknown node, missing signal), duplicates of earlier batches,
// duplicates *within* one batch, and keyless readings — at 1, 4 and 16
// stripes.
func TestSubmitBatchOutcomes(t *testing.T) {
	mixed := func() []Reading {
		at := t0.Add(30 * time.Second)
		return []Reading{
			{Node: "node-00", SignalID: "sig-a", PowerDBm: -50, At: at, Key: "k1"},
			{Node: "ghost", SignalID: "sig-a", PowerDBm: -50, At: at, Key: "k2"},   // unknown node
			{Node: "node-01", SignalID: "", PowerDBm: -50, At: at, Key: "k3"},      // missing signal
			{Node: "node-00", SignalID: "sig-a", PowerDBm: -51, At: at, Key: "k1"}, // dup within batch
			{Node: "node-01", SignalID: "sig-b", PowerDBm: -52, At: at},            // keyless
			{Node: "node-01", SignalID: "sig-b", PowerDBm: -53, At: at},            // keyless repeat: accepted again
			{Node: "node-02", SignalID: "sig-a", PowerDBm: -54, At: at, Key: "prev"},
		}
	}
	for _, shards := range []int{1, 4, 16} {
		serial := newWorkloadCollector(t, shards, 3)
		batch := newWorkloadCollector(t, shards, 3)
		// Seed both with an earlier batch so cross-batch duplicates (and
		// the lock-free fast path, populated by the first round) fire.
		seed := []Reading{{Node: "node-02", SignalID: "sig-a", PowerDBm: -49, At: t0, Key: "prev"}}
		submitSerial(t, serial, seed)
		if outs := batch.SubmitBatch(seed, nil); outs[0].Duplicate || outs[0].Err != nil {
			t.Fatalf("shards=%d: seed outcome = %+v", shards, outs[0])
		}

		rs := mixed()
		var want []SubmitOutcome
		for _, r := range rs {
			dup, err := oracleSubmitDedup(serial, r)
			want = append(want, SubmitOutcome{Duplicate: dup, Err: err})
		}
		got := batch.SubmitBatch(mixed(), nil)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d outcomes, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i].Duplicate != want[i].Duplicate {
				t.Errorf("shards=%d reading %d: Duplicate = %v, want %v", shards, i, got[i].Duplicate, want[i].Duplicate)
			}
			gotErr, wantErr := fmt.Sprint(got[i].Err), fmt.Sprint(want[i].Err)
			if gotErr != wantErr {
				t.Errorf("shards=%d reading %d: Err = %q, want %q", shards, i, gotErr, wantErr)
			}
		}
		// And the collectors must have converged to identical state.
		if !reflect.DeepEqual(batch.Fleet(), serial.Fleet()) {
			t.Errorf("shards=%d: fleet diverges after mixed batch", shards)
		}
		if got, want := batch.PendingEpochs(), serial.PendingEpochs(); got != want {
			t.Errorf("shards=%d: pending = %d, want %d", shards, got, want)
		}
		a := batch.CloseEpochs(t0.Add(time.Hour))
		b := serial.CloseEpochs(t0.Add(time.Hour))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("shards=%d: close anomalies diverge: %v vs %v", shards, a, b)
		}
		for _, sig := range []string{"sig-a", "sig-b"} {
			if !reflect.DeepEqual(batch.History(sig), serial.History(sig)) {
				t.Errorf("shards=%d: history(%s) diverges", shards, sig)
			}
		}
	}
}

// TestSubmitBatchReusesOuts pins the scratch contract: passing the
// previous call's outcome slice back in reuses its backing array.
func TestSubmitBatchReusesOuts(t *testing.T) {
	c := newWorkloadCollector(t, 4, 2)
	rs := []Reading{
		{Node: "node-00", SignalID: "s", PowerDBm: -50, At: t0, Key: "a"},
		{Node: "node-01", SignalID: "s", PowerDBm: -51, At: t0, Key: "b"},
	}
	outs := c.SubmitBatch(rs, nil)
	again := c.SubmitBatch(rs[:1], outs)
	if &again[0] != &outs[0] {
		t.Error("SubmitBatch did not reuse the passed outcome slice")
	}
	if !again[0].Duplicate {
		t.Error("retried key not marked duplicate on reused outs")
	}
}

// TestDedupFastPathChurnRace hammers the lock-free dedup fast path with
// eviction churn: a tiny DedupCap forces constant ring eviction and slot
// clears while concurrent workers retry both hot (never-evicted is not
// guaranteed — cap is tiny) and fresh keys, and a closer/reader pair
// scans shared state. Run under -race this is the memory-model check for
// the slot cache; the semantic assertion is the no-false-positive
// invariant, checked via keys that were *never* submitted.
func TestDedupFastPathChurnRace(t *testing.T) {
	const workers, perWorker = 8, 600
	c := newWorkloadCollector(t, 4, 8)
	c.DedupCap = 64 // 16 per stripe at 4 stripes: constant eviction
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.CloseEpochs(t0.Add(time.Duration(i%16) * time.Minute))
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.Fleet()
			_ = c.PendingEpochs()
			_ = c.History("sig-0")
		}
	}()
	var subWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		subWG.Add(1)
		go func(w int) {
			defer subWG.Done()
			var outs []SubmitOutcome
			batch := make([]Reading, 0, 4)
			for i := 0; i < perWorker; i++ {
				batch = batch[:0]
				for j := 0; j < 4; j++ {
					batch = append(batch, Reading{
						Node:     NodeID(fmt.Sprintf("node-%02d", (w+j)%8)),
						SignalID: fmt.Sprintf("sig-%d", j%3),
						PowerDBm: -50,
						At:       t0.Add(time.Duration(i%32) * time.Minute),
						// Deliberately overlapping key space across workers:
						// the same key races remember/evict/fastDup.
						Key: fmt.Sprintf("churn-%d", (w*perWorker+i*4+j)%128),
					})
				}
				outs = c.SubmitBatch(batch, outs)
				for k := range outs {
					if outs[k].Err != nil {
						t.Error(outs[k].Err)
						return
					}
				}
				// A key that no goroutine ever submits must never be a
				// fast-path duplicate, whatever churn is in flight.
				ghost := fmt.Sprintf("never-%d-%d", w, i)
				if dup, err := c.SubmitDedup(Reading{
					Node: "node-00", SignalID: "sig-0", PowerDBm: -50,
					At: t0, Key: ghost,
				}); err != nil || dup {
					t.Errorf("fresh key %s: dup=%v err=%v", ghost, dup, err)
					return
				}
			}
		}(w)
	}
	subWG.Wait()
	close(stop)
	wg.Wait()
}

// TestSubmitBatchDedupAcrossChunks pins that the fast path and the
// locked path agree when a retry arrives through a different entry point
// and stripe count than the original.
func TestSubmitBatchDedupAcrossChunks(t *testing.T) {
	c := newWorkloadCollector(t, 8, 1)
	c.DedupCap = 64 * 1024
	var outs []SubmitOutcome
	mk := func(i int) Reading {
		return Reading{Node: "node-00", SignalID: "s", PowerDBm: -50, At: t0, Key: fmt.Sprintf("key-%d", i)}
	}
	for i := 0; i < 200; i++ {
		outs = c.SubmitBatch([]Reading{mk(i)}, outs)
		if outs[0].Duplicate || outs[0].Err != nil {
			t.Fatalf("first submit %d: %+v", i, outs[0])
		}
	}
	// Retry all 200 in one batch: every one must dedup (mostly via the
	// lock-free fast path, since nothing was evicted).
	batch := make([]Reading, 200)
	for i := range batch {
		batch[i] = mk(i)
	}
	outs = c.SubmitBatch(batch, outs)
	for i := range outs {
		if !outs[i].Duplicate || outs[i].Err != nil {
			t.Fatalf("retry %d not deduped: %+v", i, outs[i])
		}
	}
}

// dedupRings lists every dedup stripe's live keys, oldest first.
func dedupRings(c *Collector) [][]string {
	out := make([][]string, len(c.dedups))
	for s := range c.dedups {
		d := &c.dedups[s]
		d.mu.Lock()
		for i := 0; i < d.n; i++ {
			out[s] = append(out[s], *d.ring[(d.head+i)%len(d.ring)])
		}
		d.mu.Unlock()
	}
	return out
}

// ingestSpans reduces a tracer's finished spans to what the ingest path
// decides: name, lineage, error and attributes (IDs and timings differ
// between two tracers by construction).
func ingestSpans(tr *obs.Tracer) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, sp := range tr.Snapshot() {
		out = append(out, obs.SpanRecord{
			TraceID: sp.TraceID, ParentID: sp.ParentID, Name: sp.Name,
			Error: sp.Error, Attrs: sp.Attrs,
		})
	}
	return out
}

// TestSubmitSingleMatchesOracle pins the n = 1 case of the one ingest
// body: Submit/SubmitDedup (the agent's in-process path and the
// single-object /api/readings form) are a one-element SubmitBatch, and
// after every step they must leave exactly what the per-reading
// reference body leaves — outcome, dedup ring, freshness, pending epochs,
// the submit counters and the trust.ingest span.
func TestSubmitSingleMatchesOracle(t *testing.T) {
	const sampled = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	at := t0.Add(30 * time.Second)
	steps := []struct {
		name string
		r    Reading
	}{
		{"keyed", Reading{Node: "node-00", SignalID: "sig-a", PowerDBm: -50, At: at, Key: "k1"}},
		{"unkeyed", Reading{Node: "node-01", SignalID: "sig-b", PowerDBm: -51, At: at.Add(time.Minute)}},
		{"duplicate of self", Reading{Node: "node-00", SignalID: "sig-a", PowerDBm: -50, At: at, Key: "k1"}},
		{"unregistered node", Reading{Node: "ghost", SignalID: "sig-a", PowerDBm: -50, At: at, Key: "k2"}},
		{"absurd power", Reading{Node: "node-00", SignalID: "sig-a", PowerDBm: 1e6, At: at, Key: "k3"}},
		{"traced", Reading{Node: "node-01", SignalID: "sig-a", PowerDBm: -52, At: at, Key: "k4", Trace: sampled}},
		{"traced duplicate", Reading{Node: "node-01", SignalID: "sig-a", PowerDBm: -52, At: at, Key: "k4", Trace: sampled}},
		{"traced reject", Reading{Node: "ghost", SignalID: "sig-a", PowerDBm: -52, At: at, Trace: sampled}},
	}
	for _, shards := range []int{1, 8} {
		build := func() *Collector {
			c := newWorkloadCollector(t, shards, 2)
			c.Tracer = obs.NewTracer(64)
			return c.Instrument(obs.NewRegistry())
		}
		got, want := build(), build()
		for _, s := range steps {
			dup, err := got.SubmitDedup(s.r)
			wantDup, wantErr := oracleSubmitDedup(want, s.r)
			if dup != wantDup || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("shards=%d %s: outcome (%v, %v), want (%v, %v)", shards, s.name, dup, err, wantDup, wantErr)
			}
			if g, w := dedupRings(got), dedupRings(want); !reflect.DeepEqual(g, w) {
				t.Errorf("shards=%d %s: dedup rings %v, want %v", shards, s.name, g, w)
			}
			if !reflect.DeepEqual(got.Fleet(), want.Fleet()) {
				t.Errorf("shards=%d %s: freshness diverges", shards, s.name)
			}
			if g, w := got.PendingEpochs(), want.PendingEpochs(); g != w {
				t.Errorf("shards=%d %s: pending epochs = %d, want %d", shards, s.name, g, w)
			}
			for i := range got.epochs {
				if !reflect.DeepEqual(got.epochs[i].pending, want.epochs[i].pending) {
					t.Errorf("shards=%d %s: pending readings diverge in stripe %d", shards, s.name, i)
				}
			}
			gm, wm := got.metrics, want.metrics
			for _, c := range []struct {
				series    string
				got, want float64
			}{
				{"trust_readings_total", gm.readings.Value(), wm.readings.Value()},
				{"trust_duplicate_readings_total", gm.duplicates.Value(), wm.duplicates.Value()},
				{"trust_reading_errors_total", gm.readingErrors.Value(), wm.readingErrors.Value()},
				{"collector_submit_seconds count", float64(gm.submitSeconds.Count()), float64(wm.submitSeconds.Count())},
			} {
				if c.got != c.want {
					t.Errorf("shards=%d %s: %s = %v, want %v", shards, s.name, c.series, c.got, c.want)
				}
			}
			if g, w := ingestSpans(got.Tracer), ingestSpans(want.Tracer); !reflect.DeepEqual(g, w) {
				t.Errorf("shards=%d %s: spans\n got %+v\nwant %+v", shards, s.name, g, w)
			}
		}
		if n := len(ingestSpans(got.Tracer)); n != 3 {
			t.Errorf("shards=%d: %d trust.ingest spans, want 3 (the test is vacuous without them)", shards, n)
		}
	}
}

// BenchmarkSubmitSingle prices the one-element path serially at the
// shipped stripe count: a keyless reading and a retried keyed one (the
// steady states that touch no new map entry). 0 allocs/op is the
// contract — SubmitDedup's one-element arrays must stay on the stack.
func BenchmarkSubmitSingle(b *testing.B) {
	for _, bc := range []struct{ name, key string }{{"keyless", ""}, {"retried-key", "k"}} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewShardedCollector(8)
			if err := c.Ledger.Register(Node{ID: "node-00"}); err != nil {
				b.Fatal(err)
			}
			r := Reading{Node: "node-00", SignalID: "sig-a", PowerDBm: -50, At: t0, Key: bc.key}
			if _, err := c.SubmitDedup(r); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.SubmitDedup(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
