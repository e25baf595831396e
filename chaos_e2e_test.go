package sensorcal

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"sensorcal/internal/agent"
	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/resilience"
	"sensorcal/internal/resilience/chaos"
	"sensorcal/internal/spectrumd"
	"sensorcal/internal/store"
	"sensorcal/internal/store/wal"
	"sensorcal/internal/trust"
	"sensorcal/internal/world"
)

// The chaos suite (run with `go test -race -run Chaos`) proves the §5
// robustness claim end to end: a measurement campaign over a seeded 30%
// faulty network — requests dropped before and after the server, proxy
// 503s, injected delays — must deliver every reading exactly once and
// converge to the same trust state as a fault-free run.

// chaosSeed fixes the fault schedule; the CI step runs with exactly this
// schedule so a failure replays locally.
const chaosSeed = 42

// runChaosAgentDay runs one simulated measurement day submitting through
// client (nil means submit straight into col, the fault-free reference)
// and returns the agent.
func runChaosAgentDay(t *testing.T, col *trust.Collector, client *trust.Client) *agent.Agent {
	t.Helper()
	day := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	sim := clock.NewSimulated(day)
	var sink agent.Collector
	if client != nil {
		sink = client
	} else {
		sink = col
	}
	a, err := agent.New(agent.Config{
		Node:           "node-1",
		Site:           world.RooftopSite(),
		Traffic:        agent.SimTraffic{Center: world.BuildingOrigin, Radius: 100_000, Count: 40, Seed: 7},
		Towers:         world.Towers(),
		TV:             world.TVStations(),
		Clock:          sim,
		Collector:      sink,
		WindowsPerDay:  3,
		FrequencyEvery: 1, // submit TV readings every round
		Metrics:        obs.NewRegistry(),
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.RunDay(context.Background(), day) }()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("RunDay: %v", err)
			}
			return a
		default:
			sim.Advance(5 * time.Minute)
			time.Sleep(time.Millisecond)
		}
	}
}

// serveSpectrumd serves the collector daemon spectrumd ships — a ring
// of one with private metrics and spans, on a clock frozen at the
// campaign day so its background closer never fires — and shuts it down
// (closing every pending epoch) when the test ends.
func serveSpectrumd(t *testing.T, cfg spectrumd.Config) (*spectrumd.Daemon, *httptest.Server) {
	t.Helper()
	cfg.ReplicaID = "local"
	cfg.Clock = clock.NewSimulated(time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC))
	cfg.Registry = obs.NewRegistry()
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(0)
	}
	d, err := spectrumd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Shutdown()
	})
	return d, srv
}

// newChaosClient assembles a trust.Client whose every request crosses the
// faulty transport. The breaker threshold is high: this test measures
// delivery through sustained faults, not fail-fast behavior (breaker
// transitions are covered in internal/resilience).
func newChaosClient(t *testing.T, baseURL string, rt http.RoundTripper) *trust.Client {
	t.Helper()
	spool, err := resilience.OpenSpool(filepath.Join(t.TempDir(), "readings.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spool.Close() })
	client, err := trust.NewClient(trust.ClientConfig{
		BaseURL: baseURL,
		HTTP:    &http.Client{Transport: rt, Timeout: 5 * time.Second},
		Spool:   spool,
		Retrier: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: chaosSeed,
		}),
		Breaker:   resilience.NewBreaker(resilience.BreakerConfig{Name: "collector", FailureThreshold: 10000}),
		BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// drainFully pumps the spool dry, tolerating drain errors (they are the
// chaos working as intended) up to a generous bound.
func drainFully(t *testing.T, client *trust.Client) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if err := client.Drain(context.Background()); err == nil {
			return
		}
	}
	t.Fatalf("spool did not drain; depth still %d", client.SpoolDepth())
}

// TestChaosCampaignLosslessDelivery runs the same measurement day twice —
// once submitting in-process (fault-free reference), once through a
// hardened HTTP collector behind a ~30% faulty link — and requires
// identical consensus state: every epoch present, every epoch with
// exactly the reference's readings, identical trust scores, empty spool.
func TestChaosCampaignLosslessDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration test")
	}
	// Fault-free reference run.
	ref := trust.NewCollector()
	ref.EpochWindow = time.Hour
	if err := ref.Ledger.Register(trust.Node{ID: "node-1"}); err != nil {
		t.Fatal(err)
	}
	runChaosAgentDay(t, ref, nil)
	ref.CloseEpochs(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))

	// Chaos run: same agent, same seed, network faults on every edge.
	d, srv := serveSpectrumd(t, spectrumd.Config{Epoch: time.Hour})
	col := d.Collector()
	faults := chaos.Faults{DropBefore: 0.1, DropAfter: 0.1, Err503: 0.05, Delay: 0.05, MaxDelay: 5 * time.Millisecond}
	rt := chaos.NewTransport(nil, chaosSeed, faults)
	client := newChaosClient(t, srv.URL, rt)
	if err := client.Register(context.Background(), "node-1", "chaos-test", "rooftop"); err != nil {
		t.Fatalf("register through chaos: %v", err)
	}
	runChaosAgentDay(t, col, client)
	drainFully(t, client)
	if depth := client.SpoolDepth(); depth != 0 {
		t.Fatalf("spool depth after drain = %d, want 0", depth)
	}
	d.ClosePass(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))

	requests, injected := rt.Stats()
	if requests == 0 || injected == 0 {
		t.Fatalf("chaos transport saw %d requests, injected %d faults — schedule not exercised", requests, injected)
	}
	t.Logf("chaos transport: %d requests, %d faults injected (%.0f%%)",
		requests, injected, 100*float64(injected)/float64(requests))

	// Identical epochs per signal: none lost, none duplicated.
	for _, st := range world.TVStations() {
		sig := fmt.Sprintf("tv-%.0fMHz", st.CenterHz/1e6)
		want := ref.History(sig)
		got := col.History(sig)
		if len(want) == 0 {
			t.Fatalf("reference run produced no epochs for %s", sig)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d epochs over chaos, want %d — readings lost or duplicated into extra epochs",
				sig, len(got), len(want))
		}
		for i := range want {
			if !got[i].At.Equal(want[i].At) {
				t.Fatalf("%s epoch %d at %v, want %v", sig, i, got[i].At, want[i].At)
			}
			if len(got[i].Readings) != len(want[i].Readings) {
				t.Fatalf("%s epoch %v has %d readings, want %d", sig, got[i].At, len(got[i].Readings), len(want[i].Readings))
			}
			for node, p := range want[i].Readings {
				if got[i].Readings[node] != p {
					t.Fatalf("%s epoch %v node %s power %v, want %v", sig, got[i].At, node, got[i].Readings[node], p)
				}
			}
		}
	}
	// Identical trust verdict.
	if got, want := col.Ledger.Trust("node-1"), ref.Ledger.Trust("node-1"); got != want {
		t.Fatalf("trust over chaos = %v, fault-free = %v", got, want)
	}
}

// TestChaosRestartReplaysSpool kills the delivery path mid-campaign and
// restarts it: a first client ships batches whose responses are all lost
// (the server ingests them, the client never learns), crashes without
// acking, and a second client reopening the same WAL replays everything.
// Idempotency keys must collapse the replay to exactly one reading per
// epoch.
func TestChaosRestartReplaysSpool(t *testing.T) {
	d, srv := serveSpectrumd(t, spectrumd.Config{Epoch: time.Minute})
	col := d.Collector()
	if err := col.Ledger.Register(trust.Node{ID: "node-1"}); err != nil {
		t.Fatal(err)
	}
	spoolPath := filepath.Join(t.TempDir(), "readings.jsonl")

	// First life: every response is lost after the server processed the
	// request — the worst case for naive retries.
	spool1, err := resilience.OpenSpool(spoolPath)
	if err != nil {
		t.Fatal(err)
	}
	client1, err := trust.NewClient(trust.ClientConfig{
		BaseURL: srv.URL,
		HTTP: &http.Client{
			Transport: chaos.NewTransport(nil, chaosSeed, chaos.Faults{DropAfter: 1}),
			Timeout:   5 * time.Second,
		},
		Spool: spool1,
		Retrier: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1,
		}),
		BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	for i := 0; i < total; i++ {
		r := trust.Reading{Node: "node-1", SignalID: "tv-521MHz", PowerDBm: -60, At: base.Add(time.Duration(i) * time.Minute)}
		if err := client1.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := client1.DrainOnce(context.Background()); err == nil {
		t.Fatal("DrainOnce should fail when every response is lost")
	}
	// Crash: no acks written, the WAL still holds everything.
	if err := spool1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: reopen the WAL, healthy network.
	spool2, err := resilience.OpenSpool(spoolPath)
	if err != nil {
		t.Fatal(err)
	}
	defer spool2.Close()
	if spool2.Len() != total {
		t.Fatalf("replayed spool holds %d readings, want %d", spool2.Len(), total)
	}
	client2, err := trust.NewClient(trust.ClientConfig{BaseURL: srv.URL, Spool: spool2})
	if err != nil {
		t.Fatal(err)
	}
	if err := client2.Drain(context.Background()); err != nil {
		t.Fatalf("drain after restart: %v", err)
	}
	if spool2.Len() != 0 {
		t.Fatalf("spool depth after restart drain = %d, want 0", spool2.Len())
	}

	d.ClosePass(base.Add(24 * time.Hour))
	epochs := col.History("tv-521MHz")
	if len(epochs) != total {
		t.Fatalf("epochs = %d, want %d (first life delivered, restart replayed — dedup must collapse)", len(epochs), total)
	}
	for _, e := range epochs {
		if len(e.Readings) != 1 {
			t.Fatalf("epoch %v has %d readings, want exactly 1", e.At, len(e.Readings))
		}
	}
}

// TestChaosSpoolReplayIntoRecoveredWAL proves the two durability layers
// compose: the agent's spool WAL on one side, the collector's segment
// WAL on the other. A WAL-backed collector ingests half a campaign,
// closes those epochs (appending their trust effects durably), ingests
// the second half with every response lost, and then loses power
// mid-epoch. The consistency model under test: acknowledged trust
// mutations survive the crash via the segment WAL; pending (un-closed)
// epoch evidence does not. Here every second-half response was lost, so
// nothing in the pending epochs was acked and all of it re-accumulates
// from the agent's spool replay, with idempotency keys collapsing the
// retried deliveries to exactly one reading per epoch. Acked pending
// evidence would not come back: the spool forgets a reading at its 202
// (ROADMAP item 13).
func TestChaosSpoolReplayIntoRecoveredWAL(t *testing.T) {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	root := t.TempDir()
	walDir := filepath.Join(root, "wal")
	spoolPath := filepath.Join(root, "readings.jsonl")
	ctx := context.Background()

	// First life: the collector's trust store sits on a power-cuttable
	// filesystem.
	fs := chaos.NewPowerCutFS(wal.OS{}, chaosSeed)
	d1, srv1 := serveSpectrumd(t, spectrumd.Config{Epoch: time.Minute, WAL: walDir, FS: fs})
	col1 := d1.Collector()

	spool1, err := resilience.OpenSpool(spoolPath)
	if err != nil {
		t.Fatal(err)
	}
	client1, err := trust.NewClient(trust.ClientConfig{BaseURL: srv1.URL, Spool: spool1, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := client1.Register(ctx, "node-1", "chaos-test", "rooftop"); err != nil {
		t.Fatal(err)
	}

	// First half delivered and acked; closing those epochs appends the
	// trust effect to the segment WAL.
	const half = 5
	for i := 0; i < half; i++ {
		r := trust.Reading{Node: "node-1", SignalID: "tv-521MHz", PowerDBm: -60, At: base.Add(time.Duration(i) * time.Minute)}
		if err := client1.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := client1.Drain(ctx); err != nil {
		t.Fatalf("healthy drain: %v", err)
	}
	d1.ClosePass(base.Add(time.Hour))
	trustClosed := col1.Ledger.Trust("node-1")

	// Second half: the server ingests every attempt, the client never
	// learns — the readings stay spooled, retries double-deliver.
	clientCrash, err := trust.NewClient(trust.ClientConfig{
		BaseURL: srv1.URL,
		HTTP: &http.Client{
			Transport: chaos.NewTransport(nil, chaosSeed, chaos.Faults{DropAfter: 1}),
			Timeout:   5 * time.Second,
		},
		Spool: spool1,
		Retrier: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1,
		}),
		BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := half; i < 2*half; i++ {
		r := trust.Reading{Node: "node-1", SignalID: "tv-521MHz", PowerDBm: -60, At: base.Add(time.Duration(i) * time.Minute)}
		if err := clientCrash.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := clientCrash.DrainOnce(ctx); err == nil {
		t.Fatal("DrainOnce should fail when every response is lost")
	}

	// Lights out mid-epoch: the second half's pending windows die with
	// the process; the closed-epoch trust is already on disk. The cut
	// disk refuses every later write, so the first life's shutdown at the
	// end of the test changes nothing on it.
	fs.Crash()
	if err := spool1.Close(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// Second life: recover the ledger from the segment WAL with a healthy
	// filesystem, replay the agent spool into the fresh collector.
	d2, srv2 := serveSpectrumd(t, spectrumd.Config{Epoch: time.Minute, WAL: walDir})
	col2 := d2.Collector()
	if _, ok := col2.Ledger.Node("node-1"); !ok {
		t.Fatal("acknowledged registration lost in the power cut")
	}
	if got := col2.Ledger.Trust("node-1"); got != trustClosed {
		t.Fatalf("recovered trust = %v, want the closed-epoch value %v", got, trustClosed)
	}

	spool2, err := resilience.OpenSpool(spoolPath)
	if err != nil {
		t.Fatal(err)
	}
	defer spool2.Close()
	if spool2.Len() != half {
		t.Fatalf("replayed spool holds %d readings, want the unacked %d", spool2.Len(), half)
	}
	client2, err := trust.NewClient(trust.ClientConfig{BaseURL: srv2.URL, Spool: spool2})
	if err != nil {
		t.Fatal(err)
	}
	if err := client2.Drain(ctx); err != nil {
		t.Fatalf("drain after restart: %v", err)
	}
	d2.ClosePass(base.Add(2 * time.Hour))

	// Exactly-once: the crashed life delivered each reading up to twice
	// and the replay delivered it again — idempotency keys collapse all
	// of it to one reading per epoch.
	epochs := col2.History("tv-521MHz")
	if len(epochs) != half {
		t.Fatalf("replayed epochs = %d, want %d", len(epochs), half)
	}
	for _, e := range epochs {
		if len(e.Readings) != 1 {
			t.Fatalf("epoch %v has %d readings, want exactly 1", e.At, len(e.Readings))
		}
	}
	if got := col2.Ledger.Trust("node-1"); got < trustClosed {
		t.Fatalf("trust fell from %v to %v across recovery", trustClosed, got)
	}

	// Third open: the second life's trust effects must themselves be
	// durable already.
	tl3, err := store.OpenTrustLog(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tl3.Close()
	l3 := trust.NewLedger()
	if _, err := tl3.Recover(l3, base); err != nil {
		t.Fatal(err)
	}
	if got, want := l3.Trust("node-1"), col2.Ledger.Trust("node-1"); got != want {
		t.Fatalf("durable trust = %v, live ledger = %v", got, want)
	}
}
