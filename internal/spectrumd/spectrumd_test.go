package spectrumd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/trust"
)

// newTestDaemon builds a plain daemon — a ring of one, no stream
// service — on a simulated clock starting at start, with its own
// registry and tracer and a silent log; cfg's seams are filled in.
func newTestDaemon(t *testing.T, start time.Time, cfg Config) (*Daemon, *clock.Simulated) {
	t.Helper()
	sim := clock.NewSimulated(start)
	if cfg.ReplicaID == "" {
		cfg.ReplicaID = "local"
	}
	cfg.Epoch, cfg.Clock = time.Minute, sim
	cfg.Registry, cfg.Tracer = obs.NewRegistry(), obs.NewTracer(0)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.log.SetOutput(io.Discard)
	return d, sim
}

func register(t *testing.T, c *trust.Collector, ids ...trust.NodeID) {
	t.Helper()
	for _, id := range ids {
		if err := c.Ledger.Register(trust.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEpochLoopSimulatedClock drives the background closer entirely on a
// simulated clock: readings submitted in window w close once the clock
// advances two windows past w, without any wall-clock sleeping.
func TestEpochLoopSimulatedClock(t *testing.T) {
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	d, sim := newTestDaemon(t, start, Config{})
	register(t, d.col, "a", "b", "c")
	for _, id := range []trust.NodeID{"a", "b", "c"} {
		err := d.col.Submit(trust.Reading{Node: id, SignalID: "tv-521MHz", PowerDBm: -60, At: start.Add(5 * time.Second)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := d.col.PendingEpochs(); got != 1 {
		t.Fatalf("pending epochs = %d, want 1", got)
	}

	// The loop wakes at +1m with cutoff start (window not yet matured) and
	// at +2m with cutoff +1m, which closes the start window.
	deadline := time.Now().Add(5 * time.Second)
	for d.col.PendingEpochs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("epoch never closed; pending = %d", d.col.PendingEpochs())
		}
		sim.Advance(time.Minute)
		time.Sleep(time.Millisecond)
	}
	if got := len(d.col.History("tv-521MHz")); got != 1 {
		t.Fatalf("closed epochs = %d, want 1", got)
	}

	done := make(chan struct{})
	go func() {
		d.closer.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("closer did not stop")
	}
}

// TestShutdownFlushesPendingEpochs verifies the graceful path: shutdown
// closes even the immature trailing window and its scores reach the WAL,
// so a restart on the same directory cannot launder pending consensus
// evidence.
func TestShutdownFlushesPendingEpochs(t *testing.T) {
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	walDir := t.TempDir()
	d, _ := newTestDaemon(t, start, Config{WAL: walDir})
	for _, id := range []trust.NodeID{"a", "b", "c"} {
		if err := d.col.ApplyRegister(trust.Node{ID: id, Registered: start}); err != nil {
			t.Fatal(err)
		}
	}
	// An over-consensus fabrication inside the still-open window.
	for _, r := range []trust.Reading{
		{Node: "a", SignalID: "tv-521MHz", PowerDBm: -60},
		{Node: "b", SignalID: "tv-521MHz", PowerDBm: -61},
		{Node: "c", SignalID: "tv-521MHz", PowerDBm: -30},
	} {
		r.At = start.Add(10 * time.Second)
		if err := d.col.Submit(r); err != nil {
			t.Fatal(err)
		}
	}

	d.Shutdown()

	if got := d.col.PendingEpochs(); got != 0 {
		t.Fatalf("pending epochs after shutdown = %d, want 0", got)
	}
	// A second daemon on the same directory recovers the final close.
	d2, _ := newTestDaemon(t, start.Add(time.Hour), Config{WAL: walDir})
	defer d2.Shutdown()
	if got := d2.col.Ledger.Len(); got != 3 {
		t.Fatalf("recovered %d nodes, want 3", got)
	}
	fab, honest := d2.col.Ledger.Trust("c"), d2.col.Ledger.Trust("a")
	if fab >= honest {
		t.Fatalf("recovered fabricator score %v not below honest score %v: the final close never reached the wal", fab, honest)
	}
	if want := d.col.Ledger.Trust("c"); fab != want {
		t.Fatalf("recovered fabricator score %v, want %v", fab, want)
	}
}

// gatedStore holds every AppendScores open until release is closed, so a
// test can park a close pass mid-flight.
type gatedStore struct {
	entered chan struct{} // one token per AppendScores that has begun
	release chan struct{}
}

func (s *gatedStore) AppendRegister(trust.Node) error { return nil }

func (s *gatedStore) AppendScores(time.Time, []trust.ScoreUpdate) error {
	s.entered <- struct{}{}
	<-s.release
	return nil
}

// TestShutdownWaitsForInFlightClose pins the single-flight rule at
// shutdown: with a background pass parked inside its durable append, the
// final flush must not start — no drain, no history append, no second
// append — until that pass finishes, and the result must equal closing
// the same windows serially.
func TestShutdownWaitsForInFlightClose(t *testing.T) {
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	now := start.Add(2*time.Minute + 10*time.Second)
	const sig = "tv-521MHz"
	feed := func(c *trust.Collector) {
		register(t, c, "a", "b", "c")
		for _, r := range []trust.Reading{
			// A matured window the background pass closes…
			{Node: "a", SignalID: sig, PowerDBm: -60, At: start.Add(5 * time.Second)},
			{Node: "b", SignalID: sig, PowerDBm: -61, At: start.Add(5 * time.Second)},
			{Node: "c", SignalID: sig, PowerDBm: -30, At: start.Add(5 * time.Second)},
			// …and the still-maturing one only the shutdown flush closes.
			{Node: "a", SignalID: sig, PowerDBm: -62, At: now.Add(-5 * time.Second)},
			{Node: "b", SignalID: sig, PowerDBm: -63, At: now.Add(-5 * time.Second)},
			{Node: "c", SignalID: sig, PowerDBm: -31, At: now.Add(-5 * time.Second)},
		} {
			if err := c.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	d, _ := newTestDaemon(t, now, Config{})
	// Two appends happen in all: the parked pass and the final flush.
	st := &gatedStore{entered: make(chan struct{}, 2), release: make(chan struct{})}
	d.col.Store = st
	feed(d.col)

	d.closer.Kick()
	select {
	case <-st.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("background pass never reached the store")
	}

	done := make(chan struct{})
	go func() {
		d.Shutdown()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("shutdown returned while a close pass was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	if got := d.col.PendingEpochs(); got != 1 {
		t.Errorf("pending epochs while the pass is parked = %d, want 1: the final flush drained under it", got)
	}
	if got := len(d.col.History(sig)); got != 1 {
		t.Errorf("history length while the pass is parked = %d, want 1", got)
	}
	if got := len(st.entered); got != 0 {
		t.Errorf("%d further appends began while the pass was parked", got)
	}

	close(st.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not finish after the pass was released")
	}

	serial := trust.NewCollector()
	serial.EpochWindow = time.Minute
	feed(serial)
	serial.CloseEpochs(now.Add(-time.Minute))
	serial.CloseEpochs(now.Add(time.Minute))
	if got, want := d.col.History(sig), serial.History(sig); !reflect.DeepEqual(got, want) {
		t.Errorf("history diverges from the serial order:\n got %v\nwant %v", got, want)
	}
	for _, id := range []trust.NodeID{"a", "b", "c"} {
		if got, want := d.col.Ledger.Trust(id), serial.Ledger.Trust(id); got != want {
			t.Errorf("trust(%s) = %v, want %v", id, got, want)
		}
	}
}

// TestPlainDaemonIsARingOfOne: with no -ring the daemon is a ring of
// itself — coordinator, one member, the replica readiness probe present
// and passing — and boot catch-up returns at once instead of waiting out
// -catchup-wait for a peer that cannot exist.
func TestPlainDaemonIsARingOfOne(t *testing.T) {
	d, _ := newTestDaemon(t, time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC), Config{})
	defer d.Shutdown()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		d.catchUp(context.Background(), time.Hour)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a ring of one waited for a peer at boot")
	}
	if !strings.Contains(fmt.Sprint(d.health), "replica:true") {
		t.Fatalf("readiness has no passing replica probe: %v", d.health)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/api/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring struct {
		Self, Coordinator string
		Members           []json.RawMessage
		Ready             bool
	}
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	if ring.Self != "local" || ring.Coordinator != "local" || len(ring.Members) != 1 || !ring.Ready {
		t.Fatalf("/api/ring = %+v, want one ready member coordinating itself", ring)
	}
}

// TestFollowerDaemonHandsOffAtShutdown: in a two-member daemon ring, a
// follower shutting down hands its trailing window to the coordinator,
// which closes it — the same scores a single collector computes.
func TestFollowerDaemonHandsOffAtShutdown(t *testing.T) {
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	spec := "r1=http://" + lns[0].Addr().String() + ",r2=http://" + lns[1].Addr().String()
	coord, _ := newTestDaemon(t, start, Config{ReplicaID: "r1", Ring: spec, RingSecret: "test-secret"})
	follower, _ := newTestDaemon(t, start, Config{ReplicaID: "r2", Ring: spec, RingSecret: "test-secret"})
	defer coord.Shutdown()
	var srvs [2]*http.Server
	for i, d := range []*Daemon{coord, follower} {
		srvs[i] = &http.Server{Handler: d.Handler()}
		go srvs[i].Serve(lns[i])
	}
	defer srvs[0].Close()
	// Boot catch-up (each copies the other, both empty) ends before the
	// test enrolls anyone.
	for deadline := time.Now().Add(5 * time.Second); !coord.replica.CaughtUp() || !follower.replica.CaughtUp(); {
		if time.Now().After(deadline) {
			t.Fatal("boot catch-up never finished")
		}
		time.Sleep(time.Millisecond)
	}

	// Enroll through the follower: the broadcast lands it on both ledgers.
	nodes := []trust.NodeID{"a", "b", "c"}
	for _, id := range nodes {
		resp, err := http.Post("http://"+lns[1].Addr().String()+"/api/register", "application/json",
			strings.NewReader(`{"id":"`+string(id)+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: %d", id, resp.StatusCode)
		}
	}
	if got := coord.col.Ledger.Len(); got != len(nodes) {
		t.Fatalf("coordinator ledger has %d nodes, want %d", got, len(nodes))
	}
	// The still-open window on the follower, with a fabricator in it.
	readings := []trust.Reading{
		{Node: "a", SignalID: "tv-521MHz", PowerDBm: -60},
		{Node: "b", SignalID: "tv-521MHz", PowerDBm: -61},
		{Node: "c", SignalID: "tv-521MHz", PowerDBm: -30},
	}
	for i := range readings {
		readings[i].At = start.Add(10 * time.Second)
	}
	for _, r := range readings {
		if err := follower.col.Submit(r); err != nil {
			t.Fatal(err)
		}
	}

	srvs[1].Close()
	follower.Shutdown()
	if got := follower.col.PendingEpochs(); got != 0 {
		t.Fatalf("follower holds %d pending epochs after shutdown, want 0", got)
	}
	if got := coord.col.PendingEpochs(); got != 1 {
		t.Fatalf("coordinator holds %d pending epochs after the handoff, want 1", got)
	}
	coord.ClosePass(start.Add(2 * time.Minute))
	if got := len(coord.col.History("tv-521MHz")); got != 1 {
		t.Fatalf("coordinator closed %d epochs, want the handed-off one", got)
	}

	serial := trust.NewCollector()
	serial.EpochWindow = time.Minute
	register(t, serial, nodes...)
	for _, r := range readings {
		if err := serial.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	serial.CloseEpochs(start.Add(2 * time.Minute))
	for _, id := range nodes {
		if got, want := coord.col.Ledger.Trust(id), serial.Ledger.Trust(id); got != want {
			t.Errorf("trust(%s) = %v, want %v", id, got, want)
		}
	}
	if fab, honest := coord.col.Ledger.Trust("c"), coord.col.Ledger.Trust("a"); fab >= honest {
		t.Errorf("fabricator score %v not below honest score %v", fab, honest)
	}
}
