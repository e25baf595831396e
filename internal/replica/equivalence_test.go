package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/store"
	"sensorcal/internal/store/wal"
	"sensorcal/internal/trust"
)

// The acceptance property of the replica tier: the fleet view —
// /api/fleet bytes, /api/trust bytes, closed-epoch history — is
// byte-identical between one plain collector and a 1-, 2- or 4-replica
// ring fed the same submission stream, including after killing a
// replica and catching its replacement up from a live peer.

// testReplica is one ring member in-process: a collector with its own
// durable log behind a real HTTP server whose handler can be swapped
// (the "kill and replace" lever).
type testReplica struct {
	node    *Node
	col     *trust.Collector
	srv     *httptest.Server
	handler atomic.Value // http.Handler
}

func (r *testReplica) swap(n *Node) {
	r.node = n
	r.col = n.col
	r.handler.Store(n.Handler())
}

const testRingSecret = "test-ring-secret"

var testEpoch = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func frozenNow() time.Time { return testEpoch }

func newTestCollector() *trust.Collector {
	c := trust.NewShardedCollector(4)
	c.EpochWindow = time.Minute
	c.Tracer = obs.NewTracer(16)
	c.Obs = obs.NewRegistry()
	return c
}

// newTestRing boots n replicas whose member URLs point at live servers.
func newTestRing(t *testing.T, n int) []*testReplica {
	t.Helper()
	reps := make([]*testReplica, n)
	members := make([]Member, n)
	// Servers come up before nodes: a member URL must exist before the
	// ring can be built, so each server dispatches through a swappable
	// handler (which is also the kill-and-replace lever).
	for i := range reps {
		r := &testReplica{}
		r.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			r.handler.Load().(http.Handler).ServeHTTP(w, req)
		}))
		reps[i] = r
		members[i] = Member{ID: fmt.Sprintf("r%d", i+1), URL: r.srv.URL}
		t.Cleanup(r.srv.Close)
	}
	for i, r := range reps {
		node := newTestNode(t, members[i].ID, members)
		r.swap(node)
	}
	return reps
}

func newTestNode(t *testing.T, self string, members []Member) *Node {
	t.Helper()
	log, err := store.OpenTrustLog(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	col := newTestCollector()
	col.Store = log
	node, err := New(Config{
		Self:      self,
		Members:   members,
		Collector: col,
		Secret:    testRingSecret,
		Log:       log,
		Registry:  obs.NewRegistry(),
		Tracer:    obs.NewTracer(16),
		Health:    obs.NewHealth(),
		Now:       frozenNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func mustPost(t *testing.T, url string, body interface{}, wantStatus int) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, out)
	}
	return out
}

func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, out)
	}
	return out
}

// phaseReadings builds a deterministic submission batch: every node
// reports every signal in each window, with node-7 blasting an
// implausible +45 dB on one signal so the close pass produces
// anomalies and real score divergence.
func phaseReadings(phase int, windows []time.Time) []wireReading {
	signals := []string{"lte-751MHz", "tv-521MHz", "tv-569MHz"}
	var out []wireReading
	for wi, w := range windows {
		for ni := 0; ni < 10; ni++ {
			for si, sig := range signals {
				power := -60.0 + float64(ni%3) + 0.5*float64(si) + float64(wi)
				if ni == 7 && sig == "tv-521MHz" {
					power += 45
				}
				out = append(out, wireReading{
					Node:     fmt.Sprintf("node-%d", ni),
					SignalID: sig,
					PowerDBm: power,
					At:       w.Add(time.Duration(ni) * time.Second),
					Key:      fmt.Sprintf("p%d-w%d-n%d-%s", phase, wi, ni, sig),
				})
			}
		}
	}
	return out
}

func submitAll(t *testing.T, readings []wireReading, singleURL string, reps []*testReplica) {
	t.Helper()
	// The whole batch goes to one entry replica (round-robin per call
	// site would also work): misrouted elements must be proxied to their
	// owner, which is exactly what the equivalence is testing.
	var resp trust.BatchSummary
	raw := mustPost(t, singleURL+"/api/readings", readings, http.StatusAccepted)
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rejected != 0 {
		t.Fatalf("single collector rejected %d: %v", resp.Rejected, resp.Errors)
	}
	entry := reps[len(reps)-1] // worst case: the entry owns the fewest
	raw = mustPost(t, entry.srv.URL+"/api/readings", readings, http.StatusAccepted)
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rejected != 0 {
		t.Fatalf("ring rejected %d: %v", resp.Rejected, resp.Errors)
	}
}

func assertFleetIdentical(t *testing.T, singleURL string, reps []*testReplica, label string) {
	t.Helper()
	want := mustGet(t, singleURL+"/api/fleet")
	for _, r := range reps {
		got := mustGet(t, r.srv.URL+"/api/fleet")
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: /api/fleet on %s differs from single collector\nsingle: %s\nreplica: %s",
				label, r.node.Self().ID, want, got)
		}
	}
}

func assertTrustIdentical(t *testing.T, singleURL string, reps []*testReplica, label string) {
	t.Helper()
	for ni := 0; ni < 10; ni++ {
		q := fmt.Sprintf("/api/trust?node=node-%d", ni)
		want := mustGet(t, singleURL+q)
		for _, r := range reps {
			if got := mustGet(t, r.srv.URL+q); !bytes.Equal(want, got) {
				t.Fatalf("%s: %s on %s differs: single %s, replica %s", label, q, r.node.Self().ID, want, got)
			}
		}
	}
}

func assertHistoryIdentical(t *testing.T, single *trust.Collector, reps []*testReplica, label string) {
	t.Helper()
	signals := single.HistorySignals()
	if len(signals) == 0 {
		t.Fatalf("%s: single collector has no closed history", label)
	}
	for _, sig := range signals {
		want, err := json.Marshal(single.History(sig))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reps {
			got, err := json.Marshal(r.col.History(sig))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: history of %s on %s differs\nsingle: %s\nreplica: %s", label, sig, r.node.Self().ID, want, got)
			}
		}
	}
}

func TestReplicaEquivalence(t *testing.T) {
	for _, nReplicas := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("replicas=%d", nReplicas), func(t *testing.T) {
			single := newTestCollector()
			singleSrv := httptest.NewServer(single.Handler(frozenNow))
			defer singleSrv.Close()
			reps := newTestRing(t, nReplicas)
			coord := reps[0] // "r1" is lexically smallest
			if !coord.node.IsCoordinator() {
				t.Fatal("r1 is not the coordinator")
			}

			// Enroll the fleet: each registration lands on one replica and
			// must replicate to the rest.
			for ni := 0; ni < 10; ni++ {
				req := wireRegister{
					ID: fmt.Sprintf("node-%d", ni), Operator: fmt.Sprintf("op-%d", ni%3),
					Lat: 47.0 + float64(ni)/100, Lon: 8.0 + float64(ni)/100,
					ClaimedOutdoor: ni%2 == 0, Hardware: "rtl-sdr-v3",
				}
				mustPost(t, singleSrv.URL+"/api/register", req, http.StatusCreated)
				mustPost(t, reps[ni%nReplicas].srv.URL+"/api/register", req, http.StatusCreated)
			}

			// Phase 1: three windows of readings, merge-closed.
			w1 := []time.Time{testEpoch, testEpoch.Add(time.Minute), testEpoch.Add(2 * time.Minute)}
			submitAll(t, phaseReadings(1, w1), singleSrv.URL, reps)
			cutoff1 := testEpoch.Add(3 * time.Minute)
			wantAnoms := single.CloseEpochs(cutoff1)
			gotAnoms := coord.node.MergeClose(cutoff1)
			if a, b := fmt.Sprint(wantAnoms), fmt.Sprint(gotAnoms); a != b {
				t.Fatalf("anomaly lists differ\nsingle: %s\nring:   %s", a, b)
			}
			if len(wantAnoms) == 0 {
				t.Fatal("phase 1 produced no anomalies; the equivalence is vacuous")
			}
			assertFleetIdentical(t, singleSrv.URL, reps, "after phase 1")
			assertTrustIdentical(t, singleSrv.URL, reps, "after phase 1")
			assertHistoryIdentical(t, single, reps, "after phase 1")

			// Kill a non-coordinator replica and catch a cold replacement
			// up from a live peer. Its freshness partition dies with it —
			// scores, membership and history must not.
			if nReplicas > 1 {
				victim := reps[nReplicas-1]
				members := victim.node.Ring().Members()
				fresh := newTestNode(t, victim.node.Self().ID, members)
				victim.swap(fresh)
				reached, err := fresh.CatchUp()
				if !reached || err != nil {
					t.Fatalf("catch-up: reached=%v err=%v", reached, err)
				}
				if !fresh.CaughtUp() {
					t.Fatal("replacement not marked caught up")
				}
				assertTrustIdentical(t, singleSrv.URL, reps, "after catch-up")
				assertHistoryIdentical(t, single, reps, "after catch-up")
			}

			// Phase 2: strictly newer readings covering every node, so the
			// replacement re-accumulates freshness and the full fleet view
			// converges again.
			w2 := []time.Time{testEpoch.Add(10 * time.Minute), testEpoch.Add(11 * time.Minute)}
			submitAll(t, phaseReadings(2, w2), singleSrv.URL, reps)
			cutoff2 := testEpoch.Add(15 * time.Minute)
			wantAnoms = single.CloseEpochs(cutoff2)
			gotAnoms = coord.node.MergeClose(cutoff2)
			if a, b := fmt.Sprint(wantAnoms), fmt.Sprint(gotAnoms); a != b {
				t.Fatalf("phase-2 anomaly lists differ\nsingle: %s\nring:   %s", a, b)
			}
			assertFleetIdentical(t, singleSrv.URL, reps, "after phase 2")
			assertTrustIdentical(t, singleSrv.URL, reps, "after phase 2")
			assertHistoryIdentical(t, single, reps, "after phase 2")
		})
	}
}

// TestRingEndpoint sanity-checks the topology surface agents and smoke
// scripts read.
func TestRingEndpoint(t *testing.T) {
	reps := newTestRing(t, 3)
	raw := mustGet(t, reps[1].srv.URL+"/api/ring")
	var resp ringResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Self != "r2" || resp.Coordinator != "r1" || len(resp.Members) != 3 || !resp.Ready {
		t.Fatalf("/api/ring = %+v", resp)
	}
}

// TestForwardFailureSheds: a dead owner must fail the submission with
// 503 + Retry-After, never silently ack evidence that was not placed.
func TestForwardFailureSheds(t *testing.T) {
	reps := newTestRing(t, 3)
	// Register the fleet so rejections cannot mask the shed path.
	for ni := 0; ni < 10; ni++ {
		req := wireRegister{ID: fmt.Sprintf("node-%d", ni), Operator: "op", Hardware: "rtl-sdr-v3"}
		mustPost(t, reps[0].srv.URL+"/api/register", req, http.StatusCreated)
	}
	// Kill r3 outright; submissions for its nodes entering via r1 must
	// shed. node-2 is owned by r3 under the pinned placement.
	if owner := reps[0].node.Ring().Owner("node-2"); owner.ID != "r3" {
		t.Fatalf("placement moved: node-2 owned by %s", owner.ID)
	}
	reps[2].srv.Close()
	body, _ := json.Marshal([]wireReading{{
		Node: "node-2", SignalID: "tv-521MHz", PowerDBm: -60, At: testEpoch, Key: "x1",
	}})
	resp, err := http.Post(reps[0].srv.URL+"/api/readings", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission for a dead owner returned %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// switchStore is a durable store whose appends fail while fail is set.
type switchStore struct{ fail atomic.Bool }

func (s *switchStore) AppendRegister(trust.Node) error {
	if s.fail.Load() {
		return errors.New("disk full")
	}
	return nil
}

func (s *switchStore) AppendScores(time.Time, []trust.ScoreUpdate) error {
	if s.fail.Load() {
		return errors.New("disk full")
	}
	return nil
}

// metricLines returns reg's exposition lines of the named families.
func metricLines(t *testing.T, reg *obs.Registry, families ...string) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, f := range families {
			if strings.HasPrefix(line, f+" ") || strings.HasPrefix(line, f+"{") {
				out = append(out, line)
			}
		}
	}
	return out
}

// TestRingOfOneIsTheCollector: a ring of one answers one request script
// exactly as Collector.Handler does — status, body bytes, Retry-After —
// and moves the collector's API metrics the same way, down to the shed
// counter and the score a node gets at enrollment.
func TestRingOfOneIsTheCollector(t *testing.T) {
	type target struct {
		url   string
		reg   *obs.Registry
		store *switchStore
	}
	newTarget := func(ring bool) *target {
		tg := &target{reg: obs.NewRegistry(), store: &switchStore{}}
		col := newTestCollector()
		col.Instrument(tg.reg)
		col.Store = tg.store
		h := col.Handler(frozenNow)
		if ring {
			node, err := New(Config{Self: "r1", Members: []Member{{ID: "r1"}}, Collector: col, Registry: obs.NewRegistry(), Now: frozenNow})
			if err != nil {
				t.Fatal(err)
			}
			h = node.Handler()
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		tg.url = srv.URL
		return tg
	}
	single, ring := newTarget(false), newTarget(true)

	const at = `"at":"2026-08-08T12:00:00Z"`
	script := []struct {
		method, path, body string
		failStore          bool
		want               int
	}{
		{"POST", "/api/register", `{"id":"n1","operator":"op","lat":47.1,"lon":8.2,"claimed_outdoor":true,"hardware":"rtl-sdr-v3"}`, false, 201},
		{"POST", "/api/register", `{"id":"n1"}`, false, 409},
		{"POST", "/api/register", `{"id":"n2"}`, false, 201},
		{"POST", "/api/register", `{"id":`, false, 400},
		{"POST", "/api/register", `{"id":"big","operator":"` + strings.Repeat("x", 1<<20) + `"}`, false, 413},
		{"GET", "/api/register", "", false, 405},
		{"POST", "/api/readings", `{"node":"n1","signal_id":"tv-521MHz","power_dbm":-60,` + at + `}`, false, 202},
		{"POST", "/api/readings", `{"node":"ghost","signal_id":"tv-521MHz","power_dbm":-60,` + at + `}`, false, 400},
		{"POST", "/api/readings", `[{"node":"n1","signal_id":"tv-569MHz","power_dbm":-61,` + at + `,"key":"k1"},` +
			`{"node":"n1","signal_id":"tv-569MHz","power_dbm":-61,` + at + `,"key":"k1"},` +
			`{"node":"ghost","signal_id":"tv-569MHz","power_dbm":-61,` + at + `},` +
			`{"node":"n2","signal_id":"tv-569MHz","power_dbm":1e9,` + at + `},` +
			`{"node":"n2","signal_id":"tv-569MHz","power_dbm":-62,` + at + `}]`, false, 202},
		{"POST", "/api/readings", `[{"node":"n1",`, false, 400},
		{"GET", "/api/fleet", "", false, 200},
		{"GET", "/api/trust?node=n1", "", false, 200},
		{"GET", "/api/trust?node=ghost", "", false, 404},
		{"POST", "/api/register", `{"id":"n3"}`, true, 503},
		{"POST", "/api/readings", `{"node":"n1","signal_id":"tv-521MHz","power_dbm":-60,` + at + `}`, true, 503},
		{"POST", "/api/register", `{"id":"n4"}`, true, 503},
	}
	send := func(tg *target, method, path, body string) (int, string, string) {
		t.Helper()
		req, err := http.NewRequest(method, tg.url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out), resp.Header.Get("Retry-After")
	}
	for i, step := range script {
		single.store.fail.Store(step.failStore)
		ring.store.fail.Store(step.failStore)
		wantCode, wantBody, wantRetry := send(single, step.method, step.path, step.body)
		if wantCode != step.want {
			t.Fatalf("step %d %s %s: collector answered %d, want %d: %s", i, step.method, step.path, wantCode, step.want, wantBody)
		}
		code, body, retry := send(ring, step.method, step.path, step.body)
		if code != wantCode || body != wantBody || retry != wantRetry {
			t.Fatalf("step %d %s %s: ring of one answered %d %q (Retry-After %q), collector %d %q (Retry-After %q)",
				i, step.method, step.path, code, body, retry, wantCode, wantBody, wantRetry)
		}
	}
	families := []string{"trust_http_requests_total", "trust_store_shed_total", "trust_node_score"}
	want, got := metricLines(t, single.reg, families...), metricLines(t, ring.reg, families...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ring of one metrics\n%s\ncollector metrics\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, line := range []string{`trust_store_shed_total 2`, `trust_node_score{node="n1"} 0.5`} {
		if !strings.Contains(strings.Join(want, "\n"), line) {
			t.Errorf("collector metrics lack %q; the script does not exercise them:\n%s", line, strings.Join(want, "\n"))
		}
	}
}

// TestRingOfOneMergeCloseEncodesNothing: a ring of one has no follower
// to install a close on, so its MergeClose must cost what CloseEpochs
// costs on the same backlog — the same anomalies, and no allocations
// beyond a handful for its span, where encoding an install body for
// nobody would take a few per epoch.
func TestRingOfOneMergeCloseEncodesNothing(t *testing.T) {
	single, ringCol := newTestCollector(), newTestCollector()
	node, err := New(Config{Self: "r1", Members: []Member{{ID: "r1"}}, Collector: ringCol, Registry: obs.NewRegistry(), Tracer: obs.NewTracer(16), Now: frozenNow})
	if err != nil {
		t.Fatal(err)
	}
	windows := make([]time.Time, 20)
	for i := range windows {
		windows[i] = testEpoch.Add(time.Duration(i) * time.Minute)
	}
	for _, col := range []*trust.Collector{single, ringCol} {
		for ni := 0; ni < 10; ni++ {
			if err := col.ApplyRegister(trust.Node{ID: trust.NodeID(fmt.Sprintf("node-%d", ni)), Registered: testEpoch}); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range phaseReadings(1, windows) {
			if err := col.Submit(trust.Reading{Node: trust.NodeID(r.Node), SignalID: r.SignalID, PowerDBm: r.PowerDBm, At: r.At, Key: r.Key}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	cutoff := windows[len(windows)-1].Add(time.Minute)
	var want, got []trust.Anomaly
	base := mallocs(func() { want = single.CloseEpochs(cutoff) })
	cost := mallocs(func() { got = node.MergeClose(cutoff) })
	if a, b := fmt.Sprint(want), fmt.Sprint(got); a != b || len(want) == 0 {
		t.Fatalf("anomalies differ or are empty\nCloseEpochs: %s\nMergeClose:  %s", a, b)
	}
	if cost > base+32 {
		t.Fatalf("ring-of-one MergeClose made %d allocations, CloseEpochs %d on the same backlog", cost, base)
	}
}
