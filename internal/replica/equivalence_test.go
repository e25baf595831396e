package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	var resp wireBatchResponse
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
