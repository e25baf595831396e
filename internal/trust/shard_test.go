package trust

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sensorcal/internal/hash"
)

// shardWorkload builds a deterministic stream of readings across nodes,
// signals and epoch windows, with one node inflating its power (caught
// by the upper-bound check) and one node replaying a constant (caught by
// the correlation check). A splitmix-style generator keeps it seedable
// without math/rand plumbing.
func shardWorkload(nNodes, nSignals, nWindows int, seed uint64) []Reading {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var out []Reading
	for w := 0; w < nWindows; w++ {
		at := t0.Add(time.Duration(w) * time.Minute)
		trend := float64(int(next()%13)) - 6 // shared propagation swing
		for s := 0; s < nSignals; s++ {
			sig := fmt.Sprintf("tv-%d", 500+s)
			for n := 0; n < nNodes; n++ {
				id := NodeID(fmt.Sprintf("node-%02d", n))
				p := -55 + trend + float64(int(next()%5)) - 2
				switch n {
				case 0: // inflates: flagrantly above consensus
					p = -10
				case 1: // replays a constant: decorrelates from the trend
					p = -52
				}
				out = append(out, Reading{
					Node: id, SignalID: sig, PowerDBm: p, At: at,
					Key: fmt.Sprintf("k-%d-%d-%d", w, s, n),
				})
			}
		}
	}
	return out
}

// newWorkloadCollector builds a collector with the workload's nodes
// registered at a fixed time.
func newWorkloadCollector(t *testing.T, shards, nNodes int) *Collector {
	t.Helper()
	c := NewShardedCollector(shards)
	for n := 0; n < nNodes; n++ {
		id := NodeID(fmt.Sprintf("node-%02d", n))
		if err := c.Ledger.Register(Node{ID: id, Registered: t0}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// submitSerial feeds readings through oracleSubmitDedup one at a time —
// the reference ingest body every entry point is pinned against.
func submitSerial(t *testing.T, c *Collector, rs []Reading) {
	t.Helper()
	for _, r := range rs {
		if _, err := oracleSubmitDedup(c, r); err != nil {
			t.Fatal(err)
		}
	}
}

// submitBatched feeds readings through SubmitBatch in uneven chunks (a
// prime size, so chunk boundaries sweep across signal/node cycles).
func submitBatched(t *testing.T, c *Collector, rs []Reading) {
	t.Helper()
	const chunk = 7
	var outs []SubmitOutcome
	for len(rs) > 0 {
		n := chunk
		if n > len(rs) {
			n = len(rs)
		}
		outs = c.SubmitBatch(rs[:n], outs)
		for i := range outs {
			if outs[i].Err != nil {
				t.Fatal(outs[i].Err)
			}
		}
		rs = rs[n:]
	}
}

// TestShardedCollectorEquivalence replays an identical workload into
// collectors at 1, 4 and 16 shards — through both the serial reference
// body and the batched SubmitBatch path — and requires byte-identical
// results from every merge path: CloseEpochs anomalies (order included),
// Fleet, History, PendingEpochs, and final ledger scores. The 1-shard
// serial collector is semantically the old single-lock collector, so
// this pins both ingest entry points at every stripe count to the
// pre-sharding behaviour.
func TestShardedCollectorEquivalence(t *testing.T) {
	const nNodes, nSignals, nWindows = 8, 5, 12
	readings := shardWorkload(nNodes, nSignals, nWindows, 42)

	type outcome struct {
		partial   []Anomaly // anomalies from a mid-stream partial close
		anomalies []Anomaly // anomalies from the final close
		fleet     []NodeActivity
		pending   int
		history   map[string][]Epoch
		trusted   []NodeID
	}
	run := func(shards int, submit func(*testing.T, *Collector, []Reading)) outcome {
		c := newWorkloadCollector(t, shards, nNodes)
		// Submit the first half, close part of the stream, submit the
		// rest, then close everything: exercises the merge paths with
		// both open and closed epochs in flight.
		half := len(readings) / 2
		submit(t, c, readings[:half])
		partial := c.CloseEpochs(t0.Add(3 * time.Minute))
		submit(t, c, readings[half:])
		pendingBefore := c.PendingEpochs()
		anomalies := c.CloseEpochs(t0.Add(time.Duration(nWindows+1) * time.Minute))
		history := map[string][]Epoch{}
		for s := 0; s < nSignals; s++ {
			sig := fmt.Sprintf("tv-%d", 500+s)
			history[sig] = c.History(sig)
		}
		return outcome{
			partial: partial, anomalies: anomalies, fleet: c.Fleet(),
			pending: pendingBefore, history: history, trusted: c.Ledger.Trusted(0.5),
		}
	}

	want := run(1, submitSerial)
	if len(want.anomalies) == 0 {
		t.Fatal("workload produced no anomalies; equivalence test is vacuous")
	}
	paths := []struct {
		name   string
		submit func(*testing.T, *Collector, []Reading)
		shards []int
	}{
		{"serial", submitSerial, []int{4, 16}},
		{"batch", submitBatched, []int{1, 4, 16}},
	}
	for _, p := range paths {
		for _, shards := range p.shards {
			got := run(shards, p.submit)
			if !reflect.DeepEqual(got.partial, want.partial) {
				t.Errorf("%s shards=%d: partial-close anomalies diverge:\n got %v\nwant %v", p.name, shards, got.partial, want.partial)
			}
			if !reflect.DeepEqual(got.anomalies, want.anomalies) {
				t.Errorf("%s shards=%d: final anomalies diverge:\n got %v\nwant %v", p.name, shards, got.anomalies, want.anomalies)
			}
			if !reflect.DeepEqual(got.fleet, want.fleet) {
				t.Errorf("%s shards=%d: fleet diverges:\n got %v\nwant %v", p.name, shards, got.fleet, want.fleet)
			}
			if got.pending != want.pending {
				t.Errorf("%s shards=%d: pending epochs = %d, want %d", p.name, shards, got.pending, want.pending)
			}
			if !reflect.DeepEqual(got.history, want.history) {
				t.Errorf("%s shards=%d: history diverges", p.name, shards)
			}
			if !reflect.DeepEqual(got.trusted, want.trusted) {
				t.Errorf("%s shards=%d: trusted set diverges:\n got %v\nwant %v", p.name, shards, got.trusted, want.trusted)
			}
		}
	}
}

// TestShardedCollectorDedup pins dedup behaviour across stripes: a
// retried key is dropped whichever stripe it hashes to, and capacity is
// split across stripes without losing recent keys.
func TestShardedCollectorDedup(t *testing.T) {
	c := newWorkloadCollector(t, 8, 1)
	at := t0
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		r := Reading{Node: "node-00", SignalID: "s", PowerDBm: -50, At: at, Key: key}
		if dup, err := c.SubmitDedup(r); err != nil || dup {
			t.Fatalf("first submit of %s: dup=%v err=%v", key, dup, err)
		}
		if dup, err := c.SubmitDedup(r); err != nil || !dup {
			t.Fatalf("retry of %s: dup=%v err=%v, want duplicate", key, dup, err)
		}
	}
}

// TestDedupRingEviction exercises the fixed-size ring directly: FIFO
// eviction at capacity and order-preserving resize when DedupCap changes
// between submissions. The lock-free slot cache must agree with the
// locked map at every step: a fastDup hit is only legal for a live key
// (no false positives), so every evicted key must answer false on both
// paths.
func TestDedupRingEviction(t *testing.T) {
	var s dedupStripe
	s.seen = make(map[string]struct{})
	slot := func(key string) uint64 { return hash.Mix64(fnv1a(key)) }
	rem := func(key string, limit int) { s.remember(slot(key), key, limit) }
	check := func(stage string, wants []bool) {
		t.Helper()
		for i, want := range wants {
			key := fmt.Sprintf("k%d", i)
			if got := s.dup(key); got != want {
				t.Errorf("%s: dup(%s) = %v, want %v", stage, key, got, want)
			}
			// fastDup may under-report (slot collision) but must never
			// claim an evicted key is live.
			if fast := s.fastDup(slot(key), key); fast && !want {
				t.Errorf("%s: fastDup(%s) = true for evicted key", stage, key)
			}
		}
	}
	for i := 0; i < 6; i++ {
		rem(fmt.Sprintf("k%d", i), 4)
	}
	check("after 6 inserts at cap 4", []bool{false, false, true, true, true, true})
	// Shrink: the oldest survivors are evicted, newest kept, and the
	// ring keeps working at the new capacity.
	rem("k6", 2)
	check("after shrink to 2", []bool{false, false, false, false, false, true, true})
	// Grow: existing keys survive and new capacity is usable.
	rem("k7", 5)
	rem("k8", 5)
	rem("k9", 5)
	check("after grow to 5", []bool{false, false, false, false, false, true, true, true, true, true})
	if len(s.seen) != 5 {
		t.Errorf("seen holds %d keys, want 5", len(s.seen))
	}
	// Live keys the map knows must also be fastDup hits here: with ≤5
	// keys in a ≥16-slot table seeded by Mix64 there are no collisions
	// among this fixed key set, so the cache should be fully populated.
	for i := 5; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if !s.fastDup(slot(key), key) {
			t.Errorf("fastDup(%s) = false for live key", key)
		}
	}
}

// TestShardedCollectorConcurrentStress hammers a sharded collector from
// many goroutines — submits with keys, epoch closes, fleet/history/
// pending scrapes, and ledger reads — so `go test -race` can catch any
// stripe that escapes its lock.
func TestShardedCollectorConcurrentStress(t *testing.T) {
	const nNodes, nSignals, workers, perWorker = 16, 8, 8, 400
	c := newWorkloadCollector(t, 8, nNodes)
	// Big enough that no key is evicted mid-test: a retry must always be
	// caught, however long the scheduler parks a submitter.
	c.DedupCap = 64 * 1024
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Closers and scrapers run until the submitters finish.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.CloseEpochs(t0.Add(time.Duration(i%32) * time.Minute))
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
			_ = c.Ledger.Trusted(0.4)
			_ = c.Ledger.Len()
		}
	}()
	var subWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		subWG.Add(1)
		go func(w int) {
			defer subWG.Done()
			for i := 0; i < perWorker; i++ {
				r := Reading{
					Node:     NodeID(fmt.Sprintf("node-%02d", (w*7+i)%nNodes)),
					SignalID: fmt.Sprintf("sig-%d", i%nSignals),
					PowerDBm: -50 - float64(i%10),
					At:       t0.Add(time.Duration(i%64) * time.Minute),
					Key:      fmt.Sprintf("w%d-%d", w, i),
				}
				if _, err := c.SubmitDedup(r); err != nil {
					t.Error(err)
					return
				}
				// Every 8th reading is a retry of the previous key.
				if i%8 == 0 && i > 0 {
					r.Key = fmt.Sprintf("w%d-%d", w, i-1)
					if dup, err := c.SubmitDedup(r); err != nil || !dup {
						t.Errorf("retry not deduped: dup=%v err=%v", dup, err)
						return
					}
				}
			}
		}(w)
	}
	subWG.Wait()
	close(stop)
	wg.Wait()
	// Drain everything and sanity-check the totals survived the chaos.
	c.CloseEpochs(t0.Add(365 * 24 * time.Hour))
	if c.PendingEpochs() != 0 {
		t.Errorf("pending epochs after final close = %d, want 0", c.PendingEpochs())
	}
	closed := 0
	for s := 0; s < nSignals; s++ {
		closed += len(c.History(fmt.Sprintf("sig-%d", s)))
	}
	if closed == 0 {
		t.Error("no epochs closed under stress")
	}
}

// BenchmarkSubmitSharded measures raw ingest throughput at several
// stripe counts through the one-element SubmitBatch, in parallel.
func BenchmarkSubmitSharded(b *testing.B) {
	for _, shards := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const nNodes, nSignals = 64, 32
			c := NewShardedCollector(shards)
			nodes := make([]NodeID, nNodes)
			for n := 0; n < nNodes; n++ {
				nodes[n] = NodeID(fmt.Sprintf("node-%02d", n))
				if err := c.Ledger.Register(Node{ID: nodes[n]}); err != nil {
					b.Fatal(err)
				}
			}
			signals := make([]string, nSignals)
			for s := 0; s < nSignals; s++ {
				signals[s] = fmt.Sprintf("sig-%d", s)
			}
			at := t0
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					r := Reading{
						Node:     nodes[i%nNodes],
						SignalID: signals[i%nSignals],
						PowerDBm: -50,
						At:       at,
					}
					if _, err := c.SubmitDedup(r); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}
