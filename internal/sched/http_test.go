package sched

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/resilience"
	"sensorcal/internal/resilience/chaos"
)

// chaosSeed fixes the fault schedule so a failure replays exactly; it
// matches the seed the CI chaos step uses.
const chaosSeed = 42

func newTestServer(t *testing.T, q *Queue) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer((&Server{Q: q}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func newTestClient(t *testing.T, baseURL string, rt http.RoundTripper) *Client {
	t.Helper()
	hc := &http.Client{Timeout: 5 * time.Second}
	if rt != nil {
		hc.Transport = rt
	}
	c, err := NewClient(ClientConfig{
		BaseURL: baseURL,
		HTTP:    hc,
		Retrier: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
			Seed:        chaosSeed,
		}),
		Breaker: resilience.NewBreaker(resilience.BreakerConfig{
			Name:             "sched-test",
			FailureThreshold: 1000, // measuring delivery, not fail-fast
			OpenFor:          time.Second,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHTTPLeaseCompleteRoundTrip(t *testing.T) {
	start := time.Date(2026, 7, 8, 8, 0, 0, 0, time.UTC)
	sim := clock.NewSimulated(start)
	q := newTestQueue(sim)
	if _, err := q.Add(testTask("n1", start)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, q)
	c := newTestClient(t, srv.URL, nil)

	ctx := context.Background()
	leases, err := c.Lease(ctx, "n1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 1 {
		t.Fatalf("got %d leases, want 1", len(leases))
	}
	if leases[0].Task.Node != "n1" || leases[0].Token == "" {
		t.Fatalf("malformed lease over the wire: %+v", leases[0])
	}
	if err := c.Complete(ctx, leases[0].Task.ID, leases[0].Token); err != nil {
		t.Fatal(err)
	}
	// Retried completion is acknowledged as a duplicate — success.
	if err := c.Complete(ctx, leases[0].Task.ID, leases[0].Token); err != nil {
		t.Fatalf("duplicate ack should succeed: %v", err)
	}
	// A completion for an unknown task is a permanent 404.
	if err := c.Complete(ctx, "ghost", "tok"); err == nil {
		t.Fatalf("unknown task must error")
	}
}

// TestChaosSchedLeaseExpiryExactlyOnce is the scheduler leg of the chaos
// suite (CI: go test -race -run 'Chaos.*Sched'): an agent leases a task
// and dies mid-window; after the lease TTL the task requeues and a second
// agent completes it over a lossy network whose retries must dedupe —
// the task finishes exactly once, and the dead agent's late claim loses.
func TestChaosSchedLeaseExpiryExactlyOnce(t *testing.T) {
	start := time.Date(2026, 7, 8, 8, 0, 0, 0, time.UTC)
	sim := clock.NewSimulated(start)
	reg := obs.NewRegistry()
	q := NewQueue(QueueConfig{LeaseTTL: 2 * time.Minute, Clock: sim, Metrics: reg})
	task := testTask("n1", start)
	if _, err := q.Add(task); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, q)

	// Agent A leases over a clean link, then is killed before completing.
	agentA := newTestClient(t, srv.URL, nil)
	ctx := context.Background()
	aLeases, err := agentA.Lease(ctx, "n1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(aLeases) != 1 {
		t.Fatalf("agent A got %d leases, want 1", len(aLeases))
	}

	// The lease TTL passes with no completion; the sweep requeues.
	sim.Advance(10 * time.Minute)
	if requeued, _ := q.ExpireLeases(sim.Now()); requeued != 1 {
		t.Fatalf("requeued %d, want 1", requeued)
	}

	// Agent B replaces A behind a 40% lossy network: requests dropped
	// before and after the server. Its retries must still deliver the
	// lease and the completion exactly once.
	faulty := chaos.NewTransport(http.DefaultTransport, chaosSeed, chaos.Faults{
		DropBefore: 0.25,
		DropAfter:  0.25,
		Err503:     0.1,
	})
	agentB := newTestClient(t, srv.URL, faulty)
	var bLeases []Lease
	for attempt := 0; attempt < 10 && len(bLeases) == 0; attempt++ {
		bLeases, err = agentB.Lease(ctx, "n1", 1)
		if err != nil {
			t.Logf("lease attempt through chaos: %v", err)
		}
		if len(bLeases) == 0 {
			// A lease grant whose response was dropped leaves the task
			// held under a token nobody knows; recovery is the same TTL
			// expiry an agent crash gets.
			sim.Advance(10 * time.Minute)
			q.ExpireLeases(sim.Now())
		}
	}
	if len(bLeases) != 1 {
		t.Fatalf("agent B never won the requeued task")
	}
	if bLeases[0].Token == aLeases[0].Token {
		t.Fatalf("requeued task must carry a fresh token")
	}
	// Agent A comes back from the dead while B holds the task: its token
	// was superseded, the completion is rejected (409, permanent).
	if err := agentA.Complete(ctx, task.ID, aLeases[0].Token); err == nil {
		t.Fatalf("dead agent's stale completion must be rejected")
	}

	completed := false
	for attempt := 0; attempt < 5 && !completed; attempt++ {
		if err := agentB.Complete(ctx, task.ID, bLeases[0].Token); err != nil {
			t.Logf("complete attempt through chaos: %v", err)
			continue
		}
		completed = true
	}
	if !completed {
		t.Fatalf("agent B could not complete through the chaos transport")
	}

	// A retries its ack after the task is done: the done-set recognizes
	// the ID and acknowledges a duplicate — no error, and critically no
	// second completion in the accounting below.
	if err := agentA.Complete(ctx, task.ID, aLeases[0].Token); err != nil {
		t.Fatalf("post-completion duplicate ack should succeed: %v", err)
	}

	// Exactly once: the queue holds one done task and nothing in flight.
	if st := q.Stats(); st.Done != 1 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v, want exactly one completion", st)
	}
	requests, injected := faulty.Stats()
	t.Logf("chaos transport: %d requests, %d faults injected", requests, injected)
	if injected == 0 {
		t.Fatalf("chaos transport injected no faults — the test proved nothing")
	}
}

// TestHTTPBodyCapIs413: a lease or completion body over the 1 MiB cap is
// refused as too large, not cut off and reported as malformed.
func TestHTTPBodyCapIs413(t *testing.T) {
	srv := newTestServer(t, newTestQueue(clock.NewSimulated(time.Date(2026, 7, 8, 8, 0, 0, 0, time.UTC))))
	for route, field := range map[string]string{"/api/lease": "node", "/api/complete": "task_id"} {
		body := `{"` + field + `":"` + strings.Repeat("a", 2<<20) + `"}`
		resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 2 MiB body: status %d, want 413", route, resp.StatusCode)
		}
	}
}
