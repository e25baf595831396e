package trust

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestLedgerRegisterAndTrust(t *testing.T) {
	l := NewLedger()
	if err := l.Register(Node{ID: "n1", Operator: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Register(Node{ID: "n1"}); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := l.Register(Node{}); err == nil {
		t.Error("empty ID should fail")
	}
	if got := l.Trust("n1"); got != 0.5 {
		t.Errorf("initial trust = %v, want 0.5", got)
	}
	if got := l.Trust("ghost"); got != 0 {
		t.Errorf("unknown node trust = %v, want 0", got)
	}
	n, ok := l.Node("n1")
	if !ok || n.Operator != "alice" {
		t.Error("node lookup failed")
	}
	if l.Len() != 1 {
		t.Errorf("len = %d", l.Len())
	}
}

func TestLedgerRecordConverges(t *testing.T) {
	l := NewLedger()
	_ = l.Register(Node{ID: "good"})
	_ = l.Register(Node{ID: "bad"})
	for i := 0; i < 30; i++ {
		l.Record("good", 1)
		l.Record("bad", 0)
	}
	if g := l.Trust("good"); g < 0.95 {
		t.Errorf("good node trust = %v, want →1", g)
	}
	if b := l.Trust("bad"); b > 0.05 {
		t.Errorf("bad node trust = %v, want →0", b)
	}
	// Clamping.
	l.Record("good", 5)
	l.Record("good", -3)
	if g := l.Trust("good"); g < 0 || g > 1 {
		t.Errorf("trust out of range: %v", g)
	}
	// Unknown nodes silently ignored.
	l.Record("ghost", 1)
}

func TestTrustedSorted(t *testing.T) {
	l := NewLedger()
	for _, id := range []NodeID{"a", "b", "c"} {
		_ = l.Register(Node{ID: id})
	}
	for i := 0; i < 10; i++ {
		l.Record("a", 1)
		l.Record("c", 0)
	}
	ids := l.Trusted(0.4)
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("trusted = %v, want [a b]", ids)
	}
}

func TestScoreQuantize(t *testing.T) {
	cases := map[Score]string{0.9: "trusted", 0.6: "established", 0.4: "provisional", 0.1: "suspect"}
	for s, want := range cases {
		if got := s.Quantize(); got != want {
			t.Errorf("%v.Quantize() = %s, want %s", s, got, want)
		}
	}
}

// TestLooMedian pins the by-rank leave-one-out median against a sort of
// the other readings, over odd, even, tied and degenerate epochs.
func TestLooMedian(t *testing.T) {
	for _, vals := range [][]float64{
		{7}, {2, 4}, {1, 2, 3}, {1, 2, 3, 4, 100}, {4, 1, 3, 2}, {5, 5, 5, 5}, {-50, -50, -60, -40, -50, -70},
	} {
		ranked := make([]nodeValue, len(vals))
		for i, v := range vals {
			ranked[i] = nodeValue{v: v}
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].v < ranked[j].v })
		for skip := range ranked {
			var others []float64
			for i, nv := range ranked {
				if i != skip {
					others = append(others, nv.v)
				}
			}
			if got, want := looMedian(ranked, skip), oracleMedian(others); got != want {
				t.Errorf("looMedian(%v without rank %d) = %v, want %v", vals, skip, got, want)
			}
		}
	}
}

func epochAt(sig string, at time.Time, readings map[NodeID]float64) Epoch {
	return Epoch{SignalID: sig, At: at, Readings: readings}
}

func TestUpperBoundCheckFlagsInflatedReport(t *testing.T) {
	d := NewDetector()
	e := epochAt("tv-521", time.Now(), map[NodeID]float64{
		"honest1": -52, "honest2": -54, "honest3": -60, "honest4": -49,
		"cheater": -20, // claims +30 dB over everyone
	})
	anomalies := d.CheckEpoch(e)
	if len(anomalies) != 1 || anomalies[0].Node != "cheater" {
		t.Fatalf("anomalies = %v", anomalies)
	}
	if anomalies[0].Severity < 0.9 {
		t.Errorf("severity %v for a flagrant violation", anomalies[0].Severity)
	}
	if anomalies[0].String() == "" {
		t.Error("anomaly should format")
	}
}

func TestUpperBoundCheckAllowsAttenuatedNodes(t *testing.T) {
	d := NewDetector()
	// An indoor node reading 30 dB low is fine — that's what calibration
	// is for, not fraud detection.
	e := epochAt("tv-521", time.Now(), map[NodeID]float64{
		"roof1": -50, "roof2": -52, "roof3": -51, "indoor": -82,
	})
	if anomalies := d.CheckEpoch(e); len(anomalies) != 0 {
		t.Errorf("attenuated node flagged: %v", anomalies)
	}
}

func TestUpperBoundCheckNeedsQuorum(t *testing.T) {
	d := NewDetector()
	e := epochAt("tv-521", time.Now(), map[NodeID]float64{"a": -50, "b": 0})
	if anomalies := d.CheckEpoch(e); anomalies != nil {
		t.Errorf("two nodes are not a consensus: %v", anomalies)
	}
}

// buildEpochSeries simulates epochs where the shared signal fluctuates and
// honest nodes track it with noise while a fabricator replays a constant
// and a random-submitter draws noise.
func buildEpochSeries(n int, seed int64) []Epoch {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	var out []Epoch
	for i := 0; i < n; i++ {
		trend := 6 * math.Sin(float64(i)/3) // real propagation swing, ±6 dB
		readings := map[NodeID]float64{
			"honest1": -50 + trend + rng.NormFloat64(),
			"honest2": -55 + trend + rng.NormFloat64(),
			"honest3": -62 + trend + rng.NormFloat64(), // attenuated but honest
			"replay":  -51,                             // constant fabrication
			"random":  -50 + rng.NormFloat64()*8,       // noise fabrication
		}
		out = append(out, epochAt("tv-545", base.Add(time.Duration(i)*time.Minute), readings))
	}
	return out
}

func TestCorrelationCheckCatchesFabricators(t *testing.T) {
	d := NewDetector()
	epochs := buildEpochSeries(48, 5)
	anomalies := d.CheckCorrelation(epochs)
	flagged := map[NodeID]bool{}
	for _, a := range anomalies {
		flagged[a.Node] = true
	}
	if !flagged["replay"] {
		t.Error("constant replay not flagged")
	}
	if !flagged["random"] {
		t.Error("random fabrication not flagged")
	}
	for _, honest := range []NodeID{"honest1", "honest2", "honest3"} {
		if flagged[honest] {
			t.Errorf("honest node %s flagged", honest)
		}
	}
}

func TestCorrelationCheckNeedsHistory(t *testing.T) {
	d := NewDetector()
	if anomalies := d.CheckCorrelation(buildEpochSeries(3, 7)); anomalies != nil {
		t.Errorf("too-short history should not flag: %v", anomalies)
	}
}

func TestApplyUpdatesLedger(t *testing.T) {
	l := NewLedger()
	for _, id := range []NodeID{"honest1", "cheater"} {
		_ = l.Register(Node{ID: id})
	}
	anomalies := []Anomaly{{Node: "cheater", Severity: 1}}
	for i := 0; i < 10; i++ {
		Apply(l, []NodeID{"honest1", "cheater"}, anomalies)
	}
	if l.Trust("honest1") < 0.8 {
		t.Errorf("honest trust = %v", l.Trust("honest1"))
	}
	if l.Trust("cheater") > 0.2 {
		t.Errorf("cheater trust = %v", l.Trust("cheater"))
	}
}

// pearsonBoth runs the reference two-series Pearson and the running-sums
// form the detector keeps, and requires them to agree to the bit.
func pearsonBoth(t *testing.T, a, b []float64) (float64, int) {
	t.Helper()
	var s corrSums
	for i := range a {
		if !math.IsNaN(a[i]) {
			s.add(a[i], b[i])
		}
	}
	r, n := s.pearson()
	if wr, wn := oraclePearson(a, b); math.Float64bits(r) != math.Float64bits(wr) || n != wn {
		t.Errorf("sums give r=%v n=%d, series give r=%v n=%d", r, n, wr, wn)
	}
	return r, n
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if r, n := pearsonBoth(t, a, b); math.Abs(r-1) > 1e-12 || n != 5 {
		t.Errorf("perfect correlation: r=%v n=%d", r, n)
	}
	anti := []float64{5, 4, 3, 2, 1}
	if r, _ := pearsonBoth(t, a, anti); math.Abs(r+1) > 1e-12 {
		t.Errorf("anti-correlation: r=%v", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r, _ := pearsonBoth(t, flat, b); r != 0 {
		t.Errorf("flat series should report 0, got %v", r)
	}
	withNaN := []float64{1, math.NaN(), 3, math.NaN(), 5}
	if _, n := pearsonBoth(t, withNaN, b); n != 3 {
		t.Errorf("NaN skipping: n=%d, want 3", n)
	}
	if r, n := pearsonBoth(t, []float64{math.NaN()}, []float64{1}); r != 0 || n != 0 {
		t.Error("degenerate input should be 0,0")
	}
}

func TestLedgerSaveLoad(t *testing.T) {
	l := NewLedger()
	_ = l.Register(Node{ID: "a", Operator: "alice", ClaimedOutdoor: true, Hardware: "bladeRF"})
	_ = l.Register(Node{ID: "b", Operator: "bob"})
	for i := 0; i < 10; i++ {
		l.Record("a", 1)
		l.Record("b", 0)
	}
	var buf bytes.Buffer
	saved := time.Date(2026, 7, 6, 18, 0, 0, 0, time.UTC)
	if err := l.Save(&buf, saved); err != nil {
		t.Fatal(err)
	}
	fresh := NewLedger()
	if err := fresh.LoadAt(&buf, saved.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 2 {
		t.Fatalf("len = %d", fresh.Len())
	}
	if fresh.Trust("a") != l.Trust("a") || fresh.Trust("b") != l.Trust("b") {
		t.Error("scores not restored")
	}
	n, ok := fresh.Node("a")
	if !ok || n.Operator != "alice" || !n.ClaimedOutdoor || n.Hardware != "bladeRF" {
		t.Errorf("node metadata lost: %+v", n)
	}
	// Restored nodes keep accumulating evidence.
	fresh.Record("b", 1)
	if fresh.Trust("b") <= l.Trust("b") {
		t.Error("restored ledger is inert")
	}
}

func TestLedgerLoadRejections(t *testing.T) {
	l := NewLedger()
	_ = l.Register(Node{ID: "x"})
	var buf bytes.Buffer
	now := time.Date(2026, 7, 6, 18, 0, 0, 0, time.UTC)
	_ = l.Save(&buf, now)
	// Into a non-empty ledger.
	if err := l.LoadAt(bytes.NewReader(buf.Bytes()), now); err == nil {
		t.Error("loading into a populated ledger should fail")
	}
	// Garbage.
	if err := NewLedger().LoadAt(bytes.NewReader([]byte("{bad")), now); err == nil {
		t.Error("garbage snapshot should fail")
	}
	// Corrupt score.
	if err := NewLedger().LoadAt(bytes.NewReader([]byte(`{"nodes":[{"ID":"a","score":7}]}`)), now); err == nil {
		t.Error("out-of-range score should fail")
	}
	// Missing ID.
	if err := NewLedger().LoadAt(bytes.NewReader([]byte(`{"nodes":[{"score":0.5}]}`)), now); err == nil {
		t.Error("empty ID should fail")
	}
}
