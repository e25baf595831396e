package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/trust"
)

// The peer protocol is the trust model's soft underbelly: /replica/install
// sets absolute scores and /replica/drain hands over pending evidence, so
// every route must demand the ring credential, and the drain must never be
// destructive before the coordinator plausibly holds the data.

// TestNewRequiresSecret: a ring with a peer refuses to boot without a
// ring credential — running the peer protocol open is not a
// configuration, it is a vulnerability. A ring of one has no peer to
// authenticate and boots without one.
func TestNewRequiresSecret(t *testing.T) {
	newNode := func(members ...Member) error {
		_, err := New(Config{
			Self:      "r1",
			Members:   members,
			Collector: newTestCollector(),
			Registry:  obs.NewRegistry(),
		})
		return err
	}
	if err := newNode(Member{ID: "r1"}, Member{ID: "r2", URL: "http://r2"}); err == nil {
		t.Fatal("New accepted a ring with a peer and no ring secret")
	}
	if err := newNode(Member{ID: "r1"}); err != nil {
		t.Fatalf("New refused a ring of one without a secret: %v", err)
	}
}

// TestPeerProtocolRequiresRingCredential: every /replica/* route is 403
// to callers without (or with the wrong) credential, and serves ring
// members normally. A member configured without a secret — a ring of
// one — answers 403 to every /replica/* request, whatever it carries.
func TestPeerProtocolRequiresRingCredential(t *testing.T) {
	reps := newTestRing(t, 2)
	routes := []struct {
		method, path, body string
	}{
		{http.MethodPost, "/replica/register", `{"id":"intruder"}`},
		{http.MethodPost, "/replica/drain", `{"cutoff":"2030-01-01T00:00:00Z"}`},
		{http.MethodPost, "/replica/handoff", `{"epochs":[]}`},
		{http.MethodPost, "/replica/install", `{"epochs":[],"updates":[{"node":"node-1","score":1}]}`},
		{http.MethodGet, "/replica/activity", ""},
		{http.MethodGet, "/replica/catchup", ""},
	}
	do := func(base, method, path, body, secret string) int {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		if secret != "" {
			req.Header.Set(RingAuthHeader, secret)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	base := reps[0].srv.URL
	for _, rt := range routes {
		if code := do(base, rt.method, rt.path, rt.body, ""); code != http.StatusForbidden {
			t.Errorf("%s %s without credential: %d, want 403", rt.method, rt.path, code)
		}
		if code := do(base, rt.method, rt.path, rt.body, "wrong-secret"); code != http.StatusForbidden {
			t.Errorf("%s %s with a wrong credential: %d, want 403", rt.method, rt.path, code)
		}
	}
	// The rejections happened before any handler ran: no state moved.
	if n := len(reps[0].col.Ledger.Nodes()); n != 0 {
		t.Fatalf("unauthenticated peer calls enrolled %d nodes", n)
	}
	for _, rt := range routes {
		if code := do(base, rt.method, rt.path, rt.body, testRingSecret); code == http.StatusForbidden {
			t.Errorf("%s %s with the ring credential still 403", rt.method, rt.path)
		}
	}

	col := newTestCollector()
	alone, err := New(Config{Self: "r1", Members: []Member{{ID: "r1"}}, Collector: col, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(alone.Handler())
	defer srv.Close()
	for _, rt := range routes {
		for _, secret := range []string{"", "wrong-secret", testRingSecret} {
			if code := do(srv.URL, rt.method, rt.path, rt.body, secret); code != http.StatusForbidden {
				t.Errorf("ring of one without a secret: %s %s with credential %q: %d, want 403", rt.method, rt.path, secret, code)
			}
		}
	}
	if n := len(col.Ledger.Nodes()); n != 0 {
		t.Fatalf("peer calls to a ring of one enrolled %d nodes", n)
	}
}

// TestForgedForwardHeaderRoutesNormally: X-Sensorcal-Forwarded is a
// peer-only fast path. A client forging it without the ring credential
// must be routed like any agent — here, to a dead owner, so the
// submission sheds instead of being quietly applied out of place.
func TestForgedForwardHeaderRoutesNormally(t *testing.T) {
	reps := newTestRing(t, 3)
	for ni := 0; ni < 10; ni++ {
		req := wireRegister{ID: fmt.Sprintf("node-%d", ni), Operator: "op", Hardware: "rtl-sdr-v3"}
		mustPost(t, reps[0].srv.URL+"/api/register", req, http.StatusCreated)
	}
	if owner := reps[0].node.Ring().Owner("node-2"); owner.ID != "r3" {
		t.Fatalf("placement moved: node-2 owned by %s", owner.ID)
	}
	reps[2].srv.Close()
	body, _ := json.Marshal([]wireReading{{
		Node: "node-2", SignalID: "tv-521MHz", PowerDBm: -60, At: testEpoch, Key: "forge-1",
	}})
	send := func(withSecret bool) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, reps[0].srv.URL+"/api/readings", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardHeader, "r9")
		if withSecret {
			req.Header.Set(RingAuthHeader, testRingSecret)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := send(false); code != http.StatusServiceUnavailable {
		t.Fatalf("forged forward header got %d; want 503 (routed to the dead owner)", code)
	}
	// An authenticated peer forward IS applied locally, dead owner or not.
	if code := send(true); code != http.StatusAccepted {
		t.Fatalf("authenticated peer forward got %d, want 202", code)
	}
}

// failingWriter simulates the coordinator's connection dropping while
// the drain response is on the wire.
type failingWriter struct{ h http.Header }

func (f *failingWriter) Header() http.Header        { return f.h }
func (f *failingWriter) Write([]byte) (int, error)  { return 0, errors.New("connection reset by peer") }
func (f *failingWriter) WriteHeader(statusCode int) {}

// TestDrainRestagesOnFailedResponse: epochs drained for a response the
// coordinator never received must return to pending — late, not lost.
func TestDrainRestagesOnFailedResponse(t *testing.T) {
	node := newTestNode(t, "r1", []Member{{ID: "r1"}})
	if err := node.col.ApplyRegister(trust.Node{ID: "node-1", Registered: testEpoch}); err != nil {
		t.Fatal(err)
	}
	if err := node.col.Submit(trust.Reading{
		Node: "node-1", SignalID: "tv-521MHz", PowerDBm: -60, At: testEpoch,
	}); err != nil {
		t.Fatal(err)
	}
	cutoff := testEpoch.Add(time.Hour)
	h := node.Handler()

	body, _ := json.Marshal(drainRequest{Cutoff: cutoff})
	req := httptest.NewRequest(http.MethodPost, "/replica/drain", bytes.NewReader(body))
	req.Header.Set(RingAuthHeader, testRingSecret)
	h.ServeHTTP(&failingWriter{h: http.Header{}}, req)

	restaged := node.col.DrainPending(cutoff)
	if len(restaged) != 1 || len(restaged[0].Readings) != 1 {
		t.Fatalf("pending after failed drain response = %+v, want the original epoch back", restaged)
	}

	// A successful drain, by contrast, is consumed exactly once.
	node.col.RestagePending(restaged)
	req = httptest.NewRequest(http.MethodPost, "/replica/drain", bytes.NewReader(body))
	req.Header.Set(RingAuthHeader, testRingSecret)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp drainResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Epochs) != 1 {
		t.Fatalf("healthy drain returned %d epochs, want 1", len(resp.Epochs))
	}
	if left := node.col.DrainPending(cutoff); len(left) != 0 {
		t.Fatalf("healthy drain left %d epochs pending", len(left))
	}
}

// TestRestageDoesNotClobberNewerReadings: a reading that landed after
// the drain wins over the restaged value for the same (window, node) —
// the same last-write-wins rule live ingestion applies.
func TestRestageDoesNotClobberNewerReadings(t *testing.T) {
	col := newTestCollector()
	if err := col.ApplyRegister(trust.Node{ID: "node-1", Registered: testEpoch}); err != nil {
		t.Fatal(err)
	}
	submit := func(p float64) {
		t.Helper()
		if err := col.Submit(trust.Reading{Node: "node-1", SignalID: "s", PowerDBm: p, At: testEpoch}); err != nil {
			t.Fatal(err)
		}
	}
	submit(-60)
	cutoff := testEpoch.Add(time.Hour)
	drained := col.DrainPending(cutoff)
	submit(-50) // arrives while the drain is in flight
	col.RestagePending(drained)
	restaged := col.DrainPending(cutoff)
	if len(restaged) != 1 {
		t.Fatalf("pending = %+v, want one epoch", restaged)
	}
	if got := restaged[0].Readings["node-1"]; got != -50 {
		t.Fatalf("restage clobbered a newer reading: %v, want -50", got)
	}
}

// TestFollowerFlushHandsPendingToCoordinator: a follower's graceful
// shutdown must not drop its trailing window — the handoff lands the
// evidence in the coordinator's pending and the next merge close
// produces the same fleet view a single collector would.
func TestFollowerFlushHandsPendingToCoordinator(t *testing.T) {
	single := newTestCollector()
	singleSrv := httptest.NewServer(single.Handler(frozenNow))
	defer singleSrv.Close()
	reps := newTestRing(t, 2)
	coord, follower := reps[0], reps[1]
	if follower.node.IsCoordinator() {
		t.Fatal("r2 must not be the coordinator")
	}
	for ni := 0; ni < 10; ni++ {
		req := wireRegister{ID: fmt.Sprintf("node-%d", ni), Operator: "op", Hardware: "rtl-sdr-v3"}
		mustPost(t, singleSrv.URL+"/api/register", req, http.StatusCreated)
		mustPost(t, reps[ni%2].srv.URL+"/api/register", req, http.StatusCreated)
	}
	windows := []time.Time{testEpoch, testEpoch.Add(time.Minute)}
	submitAll(t, phaseReadings(1, windows), singleSrv.URL, reps)

	cutoff := testEpoch.Add(5 * time.Minute)
	if err := follower.node.FlushPending(cutoff); err != nil {
		t.Fatalf("follower flush: %v", err)
	}
	if left := follower.col.DrainPending(cutoff); len(left) != 0 {
		t.Fatalf("follower still holds %d pending epochs after flush", len(left))
	}

	wantAnoms := single.CloseEpochs(cutoff)
	gotAnoms := coord.node.MergeClose(cutoff)
	if a, b := fmt.Sprint(wantAnoms), fmt.Sprint(gotAnoms); a != b {
		t.Fatalf("anomaly lists differ after handoff\nsingle: %s\nring:   %s", a, b)
	}
	if len(wantAnoms) == 0 {
		t.Fatal("workload produced no anomalies; the equivalence is vacuous")
	}
	assertFleetIdentical(t, singleSrv.URL, reps, "after follower handoff + merge close")
	assertHistoryIdentical(t, single, reps, "after follower handoff + merge close")
}

// TestFollowerFlushRestagesWhenCoordinatorDown: with no coordinator to
// take the handoff, the epochs return to pending so a caller that is
// not actually exiting loses nothing.
func TestFollowerFlushRestagesWhenCoordinatorDown(t *testing.T) {
	deadCoord := httptest.NewServer(http.NotFoundHandler())
	deadCoord.Close()
	col := newTestCollector()
	node, err := New(Config{
		Self:      "r2",
		Members:   []Member{{ID: "r1", URL: deadCoord.URL}, {ID: "r2"}},
		Collector: col,
		Secret:    testRingSecret,
		Registry:  obs.NewRegistry(),
		Now:       frozenNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.ApplyRegister(trust.Node{ID: "node-1", Registered: testEpoch}); err != nil {
		t.Fatal(err)
	}
	if err := col.Submit(trust.Reading{Node: "node-1", SignalID: "s", PowerDBm: -60, At: testEpoch}); err != nil {
		t.Fatal(err)
	}
	cutoff := testEpoch.Add(time.Hour)
	if err := node.FlushPending(cutoff); err == nil {
		t.Fatal("flush to a dead coordinator reported success")
	}
	if left := col.DrainPending(cutoff); len(left) != 1 {
		t.Fatalf("epochs not restaged after failed handoff: %+v", left)
	}
}

// TestRegisterBroadcastBoundedByDeadPeer: a dead peer must cost a
// registration at most the short broadcast timeout, not the full peer
// client timeout serially per dead peer.
func TestRegisterBroadcastBoundedByDeadPeer(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead2.Close()
	col := newTestCollector()
	node, err := New(Config{
		Self: "r1",
		Members: []Member{
			{ID: "r1"},
			{ID: "r2", URL: dead1.URL},
			{ID: "r3", URL: dead2.URL},
		},
		Collector:        col,
		Secret:           testRingSecret,
		BroadcastTimeout: 500 * time.Millisecond,
		Registry:         obs.NewRegistry(),
		Now:              frozenNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	start := time.Now()
	mustPost(t, srv.URL+"/api/register", wireRegister{ID: "node-1", Operator: "op"}, http.StatusCreated)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("registration with two dead peers took %s; broadcast is not bounded", took)
	}
}

// TestRegisterBodyOverCapIs413: a registration is six short fields, so a
// 1 MiB body is refused with 413 — by the collector and by a ring member
// routing the enrollment — and enrolls nothing.
func TestRegisterBodyOverCapIs413(t *testing.T) {
	single := newTestCollector()
	singleSrv := httptest.NewServer(single.Handler(frozenNow))
	defer singleSrv.Close()
	reps := newTestRing(t, 2)
	body := `{"id":"big","operator":"` + strings.Repeat("x", 1<<20) + `"}`
	for _, tc := range []struct {
		name string
		url  string
		col  *trust.Collector
	}{
		{"collector", singleSrv.URL, single},
		{"ring member", reps[1].srv.URL, reps[1].col},
	} {
		resp, err := http.Post(tc.url+"/api/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: 1 MiB registration answered %d %s, want 413", tc.name, resp.StatusCode, out)
		}
		if n := tc.col.Ledger.Len(); n != 0 {
			t.Errorf("%s: over-cap registration enrolled %d nodes", tc.name, n)
		}
	}
}
