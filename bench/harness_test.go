package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sensorcal/internal/trust"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, give float64
	}{
		{1000, 99, 99},   // exactly ten beyond
		{999, 99, 98.99}, // one short: the percentile steps down
		{20, 99, 50},
		{10, 99, 50},
		{100_000, 99, 99},
		{100, 50, 50},
	} {
		got := supportedPercentile(c.n, c.want)
		if diff := got - c.give; diff > 0.01 || diff < -0.01 {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.give)
		}
		if beyond := float64(c.n) * (1 - got/100); c.n >= 2*minBeyond && beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: p%g leaves %.2f samples beyond, want at least %d", c.n, got, beyond, minBeyond)
		}
	}
}

func TestSliceQuantileIsMedianOverSlices(t *testing.T) {
	// Three slices of 100 samples whose p50s are 10, 20 and 1000 (a
	// stall): the metric is the middle slice, not the pooled median and
	// not the stall.
	var samples []sample
	for slice, level := range []int64{10, 20, 1000} {
		for i := 0; i < 100; i++ {
			samples = append(samples, sample{at: int64(slice)*1000 + int64(i), dur: level})
		}
	}
	// A straggler after the deadline forms a slice of its own and must not count.
	samples = append(samples, sample{at: 3000, dur: 1 << 40})
	q := sliceQuantile(samples, 1000, 50)
	if q.value != 20 || q.pct != 50 || len(q.perSlice) != 3 {
		t.Fatalf("got value %g pct %g over %d slices, want 20, 50, 3", q.value, q.pct, len(q.perSlice))
	}
	if n := stallSlices(q.perSlice); n != 1 {
		t.Errorf("stallSlices = %d, want 1", n)
	}
	// A sparse series is pooled and the percentile rule applies to it whole.
	sparse := make([]sample, 20)
	for i := range sparse {
		sparse[i] = sample{at: int64(i) * 1000, dur: int64(i + 1)}
	}
	if q := sliceQuantile(sparse, 1000, 99); q.pct != 50 || q.value != 10 {
		t.Errorf("sparse series: value %g at p%g, want 10 at p50", q.value, q.pct)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spRequest, Req: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spEncode, Req: 1, Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: spRoundtrip, Req: 1, Start: 10, End: 90},
		{ID: 4, Parent: 3, Name: spHarden, Req: 1, Start: 20, End: 60},
		{ID: 5, Parent: 3, Name: spHarden, Req: 1, Start: 50, End: 80},  // overlaps its sibling
		{ID: 6, Parent: 3, Name: spHarden, Req: 1, Start: 85, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := []int64{10, 10, 80 - (60 - 20) - (80 - 60) - (90 - 85), 40, 30, 35}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	sum := summarize(spans)
	// Everything below the root, over the root: (10+15+40+30+35)/100.
	if got := sum.coverage; got < 1.299 || got > 1.301 {
		t.Errorf("coverage %g, want 1.30 (an overlapping and an overrunning child count in full)", got)
	}
	if got := sum.get(spRoundtrip).meanSelf(); got != 15 {
		t.Errorf("roundtrip self %g, want 15", got)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	ref := spanRef{req: 4_000_000_000, id: 2_000_000_000}
	got, ok := parseSpanHeader(formatSpanHeader(ref))
	if !ok || got != ref {
		t.Fatalf("round trip gave %v %v", got, ok)
	}
	for _, bad := range []string{"", "12", ".5", "a.b", "1.2.3"} {
		if _, ok := parseSpanHeader(bad); ok {
			t.Errorf("parseSpanHeader(%q) accepted", bad)
		}
	}
}

func TestGoidDiffersAcrossGoroutines(t *testing.T) {
	mine := goid()
	if mine == 0 || mine != goid() {
		t.Fatalf("goid not stable: %d", mine)
	}
	other := make(chan uint64)
	go func() { other <- goid() }()
	if o := <-other; o == 0 || o == mine {
		t.Errorf("other goroutine's id %d, mine %d", o, mine)
	}
}

// planOf is the first n requests client 0 of a seed would send, at a
// fixed time.
func planOf(seed uint64, n int) []byte {
	f := newFleet(seed, ingestHoods, ingestPerHood, ingestSignals)
	p := newIngestPlanner(f, 0)
	at := time.Unix(1_700_000_000, 123_456_789).UTC()
	var out []byte
	for i := 0; i < n; i++ {
		out = appendBatch(out, p.fill(nil, p.next(), at, ingestEpoch))
	}
	return out
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, b, c := planOf(7, 50), planOf(7, 50), planOf(8, 50)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different requests")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same requests")
	}
	base := time.Unix(1_700_000_000, 0).UTC()
	w1 := backlogWindow(newFleet(7, 1, 32, 4), base, 3, time.Second)
	w2 := backlogWindow(newFleet(7, 1, 32, 4), base, 3, time.Second)
	w3 := backlogWindow(newFleet(8, 1, 32, 4), base, 3, time.Second)
	if !reflect.DeepEqual(w1, w2) || reflect.DeepEqual(w1, w3) {
		t.Error("backlog windows are not a function of the seed alone")
	}
	seen := map[string]bool{}
	for _, r := range w1 {
		seen[string(r.Node)+"|"+r.SignalID] = true
		if r.At.Before(base.Add(3*time.Second)) || !r.At.Before(base.Add(4*time.Second)) {
			t.Fatalf("reading at %v is outside window 3", r.At)
		}
	}
	if len(seen) != 32*4 || len(w1) != 32*4 {
		t.Errorf("window holds %d readings of %d pairs, want every pair once", len(w1), len(seen))
	}
	s1, s2 := newSensors(7, 4, 64), newSensors(8, 4, 64)
	if !reflect.DeepEqual(s1, newSensors(7, 4, 64)) || reflect.DeepEqual(s1, s2) {
		t.Error("sensors are not a function of the seed alone")
	}
}

func TestIngestPlanMix(t *testing.T) {
	p := newIngestPlanner(newFleet(1, ingestHoods, ingestPerHood, ingestSignals), 0)
	requests, large, readings, inLarge := 20000, 0, 0, 0
	for i := 0; i < requests; i++ {
		n := p.next().rounds * ingestSignals
		readings += n
		if n == 10*ingestSignals {
			large++
			inLarge += n
		}
	}
	if share := float64(large) / float64(requests); share < 0.23 || share > 0.27 {
		t.Errorf("%.3f of requests are large, want about a quarter", share)
	}
	if share := float64(inLarge) / float64(readings); share < 0.72 || share > 0.82 {
		t.Errorf("%.3f of readings arrive in large requests, want about three quarters", share)
	}
}

func TestPhaseLockedAfter(t *testing.T) {
	epoch := time.Second
	for _, c := range []struct {
		nowMs, wantMs int64 // offsets into the window, delay asked of the timer
	}{
		{0, 50},      // on the boundary: this window's phase point
		{49, 1},      // just before it
		{50, 1000},   // on it: the next one
		{700, 350},   // mid-window
		{999, 51},    // the far end
		{1050, 1000}, // a pass that ran a whole window long
	} {
		now := time.Unix(1_700_000_000, 0).Add(time.Duration(c.nowMs) * time.Millisecond)
		var asked time.Duration
		after := phaseLockedAfter(epoch, func() time.Time { return now },
			func(d time.Duration) <-chan time.Time { asked = d; return nil })
		after(epoch) // the closer always asks for its interval; the phase lock overrides it
		if asked != time.Duration(c.wantMs)*time.Millisecond {
			t.Errorf("at +%d ms the timer was asked for %v, want %d ms", c.nowMs, asked, c.wantMs)
		}
		if fire := now.Add(asked); fire.Sub(fire.Truncate(epoch)) != closePhase {
			t.Errorf("at +%d ms the pass would start %v into its window, want %v", c.nowMs, fire.Sub(fire.Truncate(epoch)), closePhase)
		}
	}
}

func TestWindowAlternatesTracing(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	w := newWindow(t0, 20, time.Second, newRecorder())
	if w.slice != time.Second || w.slices() != 20 {
		t.Fatalf("20-s window cut into %d slices of %v", w.slices(), w.slice)
	}
	for ms, want := range map[int]bool{0: true, 999: true, 1000: false, 2500: true, -1: false} {
		if got := w.traced(t0.Add(time.Duration(ms) * time.Millisecond)); got != want {
			t.Errorf("traced at %+d ms = %v, want %v", ms, got, want)
		}
	}
	if newWindow(t0, 20, time.Second, nil).traced(t0) {
		t.Error("a window without a recorder is never traced")
	}
	if short := newWindow(t0, 1, time.Second, nil); short.slice != 250*time.Millisecond || short.slices() != 4 {
		t.Errorf("1-s window cut into %d slices of %v, want 4 of 250ms", short.slices(), short.slice)
	}
	var none *window
	if none.traced(t0) {
		t.Error("no window, no tracing")
	}
}

func TestParseBatchResponse(t *testing.T) {
	acc, dup, rej, ok := parseBatchResponse([]byte(`{"accepted":60,"duplicates":2,"rejected":1,"errors":["x"]}` + "\n"))
	if !ok || acc != 60 || dup != 2 || rej != 1 {
		t.Errorf("got %d %d %d %v", acc, dup, rej, ok)
	}
	for _, bad := range []string{``, `{"accepted":6}`, `{"accepted":"6","duplicates":0,"rejected":0}`} {
		if _, _, _, ok := parseBatchResponse([]byte(bad)); ok {
			t.Errorf("parseBatchResponse(%q) accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the metric
// tables of the program in step: same names, units, directions, bounds,
// and the same workloads.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

func TestScoreDigestSeesOneBit(t *testing.T) {
	l := trust.NewLedger()
	for _, id := range []trust.NodeID{"b", "a"} {
		if err := l.Register(trust.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	before := scoreDigest(l)
	if before != scoreDigest(l) {
		t.Fatal("digest not stable")
	}
	l.SetScore("a", 0.5000000000000001)
	if scoreDigest(l) == before {
		t.Error("digest did not move with the last bit of a score")
	}
}

func TestCleanSlicesAndRates(t *testing.T) {
	// Two slices over the threshold go; the figures come from the rest.
	stolen := []float64{0, 0.01, 0.30, 0.02, 0.06, 0}
	keep, n := cleanSlices(stolen)
	if want := []bool{true, true, false, true, false, true}; !reflect.DeepEqual(keep, want) || n != 2 {
		t.Fatalf("keep %v, %d stolen; want %v, 2", keep, n, want)
	}
	w := newWindow(time.Unix(0, 0), 6, time.Second, nil)
	items := []int64{100, 100, 10, 100, 40, 100, 7, 7} // two spare entries past the window, as the clients keep
	cpu := []float64{1, 1, 1, 1, 1, 1}
	perS, cpuPerItem := sliceRates(w, keep, items, cpu)
	if perS != 100 || cpuPerItem != 0.01 {
		t.Errorf("rate %g items/s at %g CPU-s per item, want 100 and 0.01", perS, cpuPerItem)
	}
	samples := []sample{{at: 0.5e9, dur: 1}, {at: 2.5e9, dur: 2}, {at: 3.5e9, dur: 3}, {at: 9e9, dur: 4}, {at: -1, dur: 5}}
	if got := inSlices(samples, 1e9, keep); len(got) != 2 || got[0].dur != 1 || got[1].dur != 3 {
		t.Errorf("inSlices kept %v, want the samples of slices 0 and 3", got)
	}
	// A box that is busy throughout still leaves its cleaner half.
	busy := []float64{0.2, 0.4, 0.1, 0.3}
	keep, n = cleanSlices(busy)
	if want := []bool{true, false, true, false}; !reflect.DeepEqual(keep, want) || n != 4 {
		t.Errorf("busy box: keep %v, %d stolen; want %v, 4", keep, n, want)
	}
}

func TestSpeedProbeSlowdown(t *testing.T) {
	w := newWindow(time.Now(), 1, time.Second, nil)
	p := startSpeedProbe(w)
	time.Sleep(5 * hostSpeedEvery)
	live := p.slowdown(w, []bool{true, true, true, true})
	if len(p.bursts) < 3 || live <= 0 {
		t.Fatalf("%d bursts in five periods, slowdown %g", len(p.bursts), live)
	}
	// The figure itself, on known bursts: mean over kept slices, slowest
	// twentieth out, over nominal.
	q := &speedProbe{stop: make(chan struct{})}
	for i := 0; i < 40; i++ {
		d := int64(hostSpeedNominal) * 2
		if i == 7 {
			d *= 100 // interrupted by the hypervisor
		}
		q.bursts = append(q.bursts, sample{at: int64(i) * int64(hostSpeedEvery), dur: d})
	}
	slice4 := &window{t0: w.t0, dur: 4 * time.Second, slice: time.Second}
	q.bursts = append(q.bursts, sample{at: int64(slice4.slice) * 5 / 2, dur: 1}) // in a slice that is not kept
	if got := q.slowdown(slice4, []bool{true, true, false, true}); got != 2 {
		t.Errorf("slowdown %g, want 2", got)
	}
}

func TestMeasureRepeatsAStolenRun(t *testing.T) {
	for _, c := range []struct {
		shares []float64 // what successive runs report
		want   float64
		runs   int
	}{
		{[]float64{0.5}, 0.5, 1},           // at the threshold: kept
		{[]float64{0.8, 0.2}, 0.2, 2},      // a clean second run ends it
		{[]float64{0.8, 0.9, 0.7}, 0.7, 3}, // the cleanest of three, and no fourth
		{[]float64{0.6, 0.9, 0.8}, 0.6, 3}, // the first stays when no later one is cleaner
	} {
		runs := 0
		w := workload{name: "fake", run: func(e *runEnv) (*record, error) {
			r := newRecord(e.workload)
			r.StolenShare = c.shares[runs]
			runs++
			return r, nil
		}}
		old := logOut
		logOut = io.Discard
		r, _, err := measure(w, func() *runEnv { return &runEnv{workload: w.name} })
		logOut = old
		if err != nil || r.StolenShare != c.want || runs != c.runs {
			t.Errorf("shares %v: kept %g after %d runs (%v), want %g after %d", c.shares, r.StolenShare, runs, err, c.want, c.runs)
		}
	}
}
