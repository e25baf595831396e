package trust

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sameAnomalies requires two anomaly lists to be identical: order, Detail
// strings and every bit of every severity.
func sameAnomalies(t testing.TB, what string, got, want []Anomaly) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
	}
	for i := range got {
		if math.Float64bits(got[i].Severity) != math.Float64bits(want[i].Severity) {
			t.Fatalf("%s: anomaly %d severity bits %x, want %x", what, i,
				math.Float64bits(got[i].Severity), math.Float64bits(want[i].Severity))
		}
	}
}

// checkAgainstOracle runs both checks, as the collector runs them — one
// corrState advanced epoch by epoch — and statelessly, and compares every
// result with the recompute-from-scratch reference.
func checkAgainstOracle(t testing.TB, d *Detector, epochs []Epoch) {
	t.Helper()
	var cs corrState
	for k := 1; k <= len(epochs); k++ {
		sameAnomalies(t, fmt.Sprintf("CheckEpoch(epoch %d)", k-1), d.CheckEpoch(epochs[k-1]), oracleCheckEpoch(d, epochs[k-1]))
		sameAnomalies(t, fmt.Sprintf("incremental check over %d epochs", k), cs.check(d, epochs[:k]), oracleCheckCorrelation(d, epochs[:k]))
		if cs.folded != k {
			t.Fatalf("cursor at %d after %d epochs", cs.folded, k)
		}
	}
	sameAnomalies(t, fmt.Sprintf("CheckCorrelation(%d epochs)", len(epochs)), d.CheckCorrelation(epochs), oracleCheckCorrelation(d, epochs))
}

// randomHistory draws a detector and one signal's history with the shapes
// the running sums must survive: ties (readings on a half-dB lattice),
// single- and two-node epochs, late joiners, nodes that skip epochs,
// flat-liners, histories on both sides of MinEpochs, and now and then
// values no receiver produces.
func randomHistory(rng *rand.Rand) (*Detector, []Epoch) {
	d := &Detector{
		UpperBoundMarginDB: []float64{6, 6, 0, -3}[rng.Intn(4)],
		MinCorrelation:     []float64{0.3, 0.3, 0.9, 0}[rng.Intn(4)],
		MinEpochs:          []int{8, 8, 5, 2, 1, 0}[rng.Intn(6)],
	}
	nNodes := 1 + rng.Intn(9)
	nEpochs := rng.Intn(30)
	lattice := rng.Intn(2) == 0
	wild := rng.Intn(8) == 0
	type node struct {
		id     NodeID
		joins  int
		skips  float64
		flat   bool
		offset float64
	}
	nodes := make([]node, nNodes)
	for i := range nodes {
		nodes[i] = node{
			id:     NodeID(fmt.Sprintf("n%02d", i)),
			skips:  []float64{0, 0, 0.2, 0.6}[rng.Intn(4)],
			flat:   rng.Intn(5) == 0,
			offset: -50 - float64(rng.Intn(20)),
		}
		if rng.Intn(3) == 0 && nEpochs > 0 {
			nodes[i].joins = rng.Intn(nEpochs)
		}
	}
	epochs := make([]Epoch, nEpochs)
	for k := range epochs {
		trend := 6 * math.Sin(float64(k)/3)
		e := Epoch{SignalID: "tv-545", At: t0.Add(time.Duration(k) * time.Minute), Readings: map[NodeID]float64{}}
		limit := nNodes
		if rng.Intn(6) == 0 {
			limit = 1 + rng.Intn(2) // a single- or two-node epoch
		}
		for _, n := range nodes {
			if len(e.Readings) >= limit || k < n.joins || rng.Float64() < n.skips {
				continue
			}
			v := n.offset
			if !n.flat {
				v += trend + 2*rng.NormFloat64()
			}
			if lattice {
				v = math.Round(v*2) / 2
			}
			if wild && rng.Intn(10) == 0 {
				v = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200, 0, math.Copysign(0, -1)}[rng.Intn(7)]
			}
			e.Readings[n.id] = v
		}
		epochs[k] = e
	}
	return d, epochs
}

// TestConsensusMatchesOracle is the differential property test: the
// top-two CheckEpoch and the incremental, rank-based CheckCorrelation
// against the old bodies over seeded random histories.
func TestConsensusMatchesOracle(t *testing.T) {
	flagged := 0
	for seed := int64(1); seed <= 400; seed++ {
		d, epochs := randomHistory(rand.New(rand.NewSource(seed)))
		checkAgainstOracle(t, d, epochs)
		flagged += len(d.CheckCorrelation(epochs))
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
	if flagged == 0 {
		t.Fatal("no history produced a correlation anomaly; the comparison is vacuous")
	}
	// The standing fixture too: five nodes, 48 epochs, two fabricators.
	checkAgainstOracle(t, NewDetector(), buildEpochSeries(48, 5))
}

// fuzzHistory decodes fuzz input into a detector and a history. Byte 0
// is the node count, byte 1 MinEpochs, byte 2 picks threshold and margin;
// after that every epoch takes one byte per node: 0 is "absent", most
// values land on a half-dB lattice (ties), the top few are non-finite or
// absurd.
func fuzzHistory(data []byte) (*Detector, []Epoch) {
	if len(data) < 3 {
		return nil, nil
	}
	nNodes := 1 + int(data[0]%8)
	d := &Detector{
		MinEpochs:          int(data[1] % 10),
		MinCorrelation:     []float64{0.3, 0.9, 0, -0.5}[data[2]%4],
		UpperBoundMarginDB: []float64{6, 0, -3, 25}[data[2]/4%4],
	}
	data = data[3:]
	var epochs []Epoch
	for k := 0; len(data) >= nNodes && k < 64; k++ {
		e := Epoch{SignalID: "fuzz", At: t0.Add(time.Duration(k) * time.Minute), Readings: map[NodeID]float64{}}
		for i, b := range data[:nNodes] {
			id := NodeID(fmt.Sprintf("n%d", i))
			switch {
			case b == 0:
			case b <= 250:
				e.Readings[id] = -100 + float64(b)/2
			default:
				e.Readings[id] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200}[b-251]
			}
		}
		epochs = append(epochs, e)
		data = data[nNodes:]
	}
	return d, epochs
}

// FuzzCorrelationIncremental is the differential comparison with the
// fuzzer choosing the history.
func FuzzCorrelationIncremental(f *testing.F) {
	f.Add([]byte{2, 8, 0})
	f.Add(append([]byte{0, 2, 1}, bytes.Repeat([]byte{100}, 12)...))                // one node, alone in every epoch
	f.Add(append([]byte{2, 3, 0}, bytes.Repeat([]byte{90, 90, 110}, 10)...))        // three flat-liners, two tied
	f.Add(append([]byte{3, 2, 4}, bytes.Repeat([]byte{80, 0, 84, 251, 255}, 8)...)) // misaligned with the node count: values rotate
	trend := []byte{2, 8, 0}
	for k := 0; k < 24; k++ {
		swing := byte(12 * math.Sin(float64(k)/3))
		trend = append(trend, 100+swing, 90+swing+byte(k%2), 101) // two trackers and a replay
	}
	f.Add(trend)
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, epochs := fuzzHistory(data); d != nil {
			checkAgainstOracle(t, d, epochs)
		}
	})
}

// foldedThrough reports how many of a signal's history epochs are in its
// correlation sums, and how long that history is.
func foldedThrough(c *Collector, sig string) (folded, history int) {
	st := &c.epochs[fnv1a(sig)&c.mask]
	st.mu.Lock()
	defer st.mu.Unlock()
	if cs := st.corr[sig]; cs != nil {
		folded = cs.folded
	}
	return folded, len(st.history[sig])
}

// TestCorrelationStateIsFunctionOfHistory pins the invariant that makes
// the running sums safe to keep: they are a cache of the history and
// nothing else. A collector that closed every epoch itself, one that
// installed a coordinator's closes and then takes over (failover), and
// one whose history was replaced wholesale (catch-up) must agree on the
// next close to the bit, each having folded every epoch exactly once.
func TestCorrelationStateIsFunctionOfHistory(t *testing.T) {
	const nNodes, nSignals, nWindows = 8, 3, 14
	readings := shardWorkload(nNodes, nSignals, nWindows, 7)
	perWindow := len(readings) / nWindows
	window := func(w int) []Reading { return readings[w*perWindow : (w+1)*perWindow] }
	closeAt := func(w int) time.Time { return t0.Add(time.Duration(w+1) * time.Minute) }
	signals := make([]string, nSignals)
	for s := range signals {
		signals[s] = fmt.Sprintf("tv-%d", 500+s)
	}
	wantFolded := func(c *Collector, name string, folded, history int) {
		t.Helper()
		for _, sig := range signals {
			if f, h := foldedThrough(c, sig); f != folded || h != history {
				t.Fatalf("%s %s: folded %d of %d history epochs, want %d of %d", name, sig, f, h, folded, history)
			}
		}
	}

	self := newWorkloadCollector(t, 4, nNodes)
	follower := newWorkloadCollector(t, 4, nNodes)
	for w := 0; w < nWindows-1; w++ {
		submitBatched(t, self, window(w))
		epochs := self.DrainPending(closeAt(w))
		_, updates := self.CloseDrained(closeAt(w), epochs)
		follower.InstallClosed(closeAt(w), epochs, updates)
		wantFolded(self, "self", w+1, w+1) // one more epoch per close, never a refold
		wantFolded(follower, "follower", 0, w+1)
	}

	// The restored collector first builds sums of its own, so the test
	// sees InstallHistory drop them rather than never having had any.
	restored := newWorkloadCollector(t, 4, nNodes)
	submitBatched(t, restored, window(0))
	restored.CloseEpochs(closeAt(0))
	wantFolded(restored, "restored before catch-up", 1, 1)
	for _, sig := range signals {
		restored.InstallHistory(sig, self.History(sig))
	}
	for _, n := range self.Fleet() {
		restored.Ledger.SetScore(n.Node, n.Score)
	}
	wantFolded(restored, "restored after catch-up", 0, nWindows-1)

	last := nWindows - 1
	submitBatched(t, self, window(last))
	want := self.CloseEpochs(closeAt(last))
	correlated := false
	for _, a := range want {
		correlated = correlated || a.Kind == "uncorrelated-with-consensus"
	}
	if !correlated {
		t.Fatal("the last close raised no correlation anomaly; the test is vacuous")
	}
	wantFolded(self, "self", nWindows, nWindows)
	for name, c := range map[string]*Collector{"follower": follower, "restored": restored} {
		submitBatched(t, c, window(last))
		sameAnomalies(t, name+" takes over the close", c.CloseEpochs(closeAt(last)), want)
		wantFolded(c, name, nWindows, nWindows)
		for _, n := range self.Fleet() {
			if got := c.Ledger.Trust(n.Node); math.Float64bits(float64(got)) != math.Float64bits(float64(n.Score)) {
				t.Errorf("%s: %s scored %v, want %v", name, n.Node, got, n.Score)
			}
		}
		for _, sig := range signals {
			if !reflect.DeepEqual(c.History(sig), self.History(sig)) {
				t.Errorf("%s: history of %s diverges", name, sig)
			}
		}
	}
}

// TestAbsurdPowerRejected is the regression test for the poisoned-sums
// bug: a finite but absurd reading squared overflows to +Inf, the node's
// correlation becomes NaN, NaN is below no threshold, and the node is
// never flagged again. Both entry points must reject such readings, and
// a fleet in which one node tries it must be judged exactly like a fleet
// in which it did not.
func TestAbsurdPowerRejected(t *testing.T) {
	c := newTestCollector(t, "a")
	var outs []SubmitOutcome
	for _, p := range []float64{-1e200, 1e200, 1000.5, -1000.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := Reading{Node: "a", SignalID: "s", PowerDBm: p, At: t0}
		if err := c.Submit(r); err == nil {
			t.Errorf("Submit accepted %v dBm", p)
		}
		if outs = c.SubmitBatch([]Reading{r}, outs); outs[0].Err == nil {
			t.Errorf("SubmitBatch accepted %v dBm", p)
		}
	}
	for _, p := range []float64{-1000, 1000, -174, 0} {
		if err := c.Submit(Reading{Node: "a", SignalID: "s", PowerDBm: p, At: t0}); err != nil {
			t.Errorf("Submit rejected %v dBm: %v", p, err)
		}
	}
	if c.PendingEpochs() != 1 {
		t.Errorf("%d pending epochs, want the one the in-range readings opened", c.PendingEpochs())
	}

	// Over HTTP: a per-reading rejection in the batch form, 400 in the
	// single-object form.
	srv := httptest.NewServer(c.Handler(func() time.Time { return t0 }))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/api/readings", "application/json",
		strings.NewReader(`[{"node":"a","signal_id":"s","power_dbm":-60},{"node":"a","signal_id":"s","power_dbm":-1e200}]`))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchSummary
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || br.Accepted != 1 || br.Rejected != 1 {
		t.Errorf("batch: status %d, %+v; want 202 with one accepted, one rejected", resp.StatusCode, br)
	}
	resp, err = http.Post(srv.URL+"/api/readings", "application/json",
		strings.NewReader(`{"node":"a","signal_id":"s","power_dbm":1e200}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("single reading: status %d, want 400", resp.StatusCode)
	}

	// The fleet: node-01 replays a constant and is caught by the
	// correlation check. In the poisoned run it follows its first reading
	// of every signal with an absurd one for the same window, which, were
	// it accepted, would replace the honest-looking value and exempt it.
	const nNodes, nSignals, nWindows = 8, 2, 12
	readings := shardWorkload(nNodes, nSignals, nWindows, 3)
	run := func(poison bool) ([]Anomaly, []NodeActivity) {
		c := newWorkloadCollector(t, 4, nNodes)
		var outs []SubmitOutcome
		for _, r := range readings {
			batch := []Reading{r}
			if poison && r.Node == "node-01" && r.At.Equal(t0) {
				batch = append(batch, Reading{Node: r.Node, SignalID: r.SignalID, PowerDBm: -1e200, At: r.At})
			}
			outs = c.SubmitBatch(batch, outs)
			if outs[0].Err != nil || (len(outs) == 2) != (outs[len(outs)-1].Err != nil) {
				t.Fatalf("poison=%v: outcomes %+v", poison, outs)
			}
		}
		return c.CloseEpochs(t0.Add((nWindows + 1) * time.Minute)), c.Fleet()
	}
	wantAnomalies, wantFleet := run(false)
	caught := false
	for _, a := range wantAnomalies {
		caught = caught || (a.Node == "node-01" && a.Kind == "uncorrelated-with-consensus")
	}
	if !caught {
		t.Fatal("the replaying node was not flagged in the clean run; the test is vacuous")
	}
	gotAnomalies, gotFleet := run(true)
	sameAnomalies(t, "fleet with a poisoning node", gotAnomalies, wantAnomalies)
	if !reflect.DeepEqual(gotFleet, wantFleet) {
		t.Errorf("fleet with a poisoning node diverges:\n got %v\nwant %v", gotFleet, wantFleet)
	}
}

// BenchmarkCloseDrained times one close pass of a dense metro — 128 nodes
// all hearing 8 signals, 1 024 readings, three of the nodes flat-lining —
// on a collector that has already closed `history` epochs per signal. The
// two sizes show whether a pass grows with what was closed before it.
func BenchmarkCloseDrained(b *testing.B) {
	const nNodes, nSignals = 128, 8
	for _, history := range []int{8, 64} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			c := NewShardedCollector(8)
			ids := make([]NodeID, nNodes)
			for i := range ids {
				ids[i] = NodeID(fmt.Sprintf("node-%03d", i))
				if err := c.Ledger.Register(Node{ID: ids[i], Registered: t0}); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			pass := func(w int) (time.Time, []Epoch) {
				at := t0.Add(time.Duration(w) * time.Minute)
				trend := 6 * math.Sin(float64(w)/3)
				epochs := make([]Epoch, nSignals)
				for s := range epochs {
					e := Epoch{SignalID: fmt.Sprintf("tv-%d", 500+s), At: at, Readings: make(map[NodeID]float64, nNodes)}
					for i, id := range ids {
						e.Readings[id] = -50 - float64(i%20)
						if i >= 3 {
							e.Readings[id] += trend + rng.NormFloat64()
						}
					}
					epochs[s] = e
				}
				return at.Add(time.Minute), epochs
			}
			for w := 0; w < history; w++ {
				c.CloseDrained(pass(w))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cutoff, epochs := pass(history + i)
				b.StartTimer()
				c.CloseDrained(cutoff, epochs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(nNodes*nSignals), "ns/reading")
		})
	}
}
