package trust

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/resilience"
)

func newTestCollector(t *testing.T, nodes ...string) *Collector {
	t.Helper()
	c := NewCollector()
	for _, id := range nodes {
		if err := c.Ledger.Register(Node{ID: NodeID(id), Registered: time.Unix(0, 0)}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	return c
}

func TestCollectorDedupByKey(t *testing.T) {
	c := newTestCollector(t, "a")
	at := time.Unix(600, 0)
	r := Reading{Node: "a", SignalID: "tv-521MHz", PowerDBm: -60, At: at, Key: "k1"}
	if dup, err := c.SubmitDedup(r); err != nil || dup {
		t.Fatalf("first submit: dup=%v err=%v", dup, err)
	}
	if dup, err := c.SubmitDedup(r); err != nil || !dup {
		t.Fatalf("retried submit: dup=%v err=%v, want duplicate", dup, err)
	}
	// A different key with the same content is NOT deduplicated (the
	// client chose to submit it twice).
	r2 := r
	r2.Key = "k2"
	if dup, err := c.SubmitDedup(r2); err != nil || dup {
		t.Fatalf("distinct key: dup=%v err=%v", dup, err)
	}
	// Keyless readings bypass dedup entirely.
	r3 := r
	r3.Key = ""
	if dup, err := c.SubmitDedup(r3); err != nil || dup {
		t.Fatalf("keyless: dup=%v err=%v", dup, err)
	}
}

func TestCollectorDedupCapEvictsOldest(t *testing.T) {
	c := newTestCollector(t, "a")
	c.DedupCap = 4
	at := time.Unix(600, 0)
	for i := 0; i < 6; i++ {
		r := Reading{Node: "a", SignalID: "s", PowerDBm: -60, At: at, Key: fmt.Sprintf("k%d", i)}
		if _, err := c.SubmitDedup(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	// k0 and k1 were evicted; resubmitting them is no longer caught.
	if dup, _ := c.SubmitDedup(Reading{Node: "a", SignalID: "s", At: at, Key: "k0"}); dup {
		t.Fatalf("evicted key still deduplicated")
	}
	// k5 is still remembered.
	if dup, _ := c.SubmitDedup(Reading{Node: "a", SignalID: "s", At: at, Key: "k5"}); !dup {
		t.Fatalf("recent key not deduplicated")
	}
}

func TestReadingsBatchEndpoint(t *testing.T) {
	c := newTestCollector(t, "a", "b")
	srv := httptest.NewServer(c.Handler(func() time.Time { return time.Unix(600, 0) }))
	defer srv.Close()
	at := time.Unix(600, 0)
	batch := []submitRequest{
		{Node: "a", SignalID: "tv-521MHz", PowerDBm: -60, At: at, Key: "a1"},
		{Node: "b", SignalID: "tv-521MHz", PowerDBm: -62, At: at, Key: "b1"},
		{Node: "a", SignalID: "tv-521MHz", PowerDBm: -60, At: at, Key: "a1"},   // duplicate
		{Node: "ghost", SignalID: "tv-521MHz", PowerDBm: -1, At: at, Key: "g"}, // rejected
	}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(srv.URL+"/api/readings", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %s, want 202", resp.Status)
	}
	var summary BatchSummary
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if summary.Accepted != 2 || summary.Duplicates != 1 || summary.Rejected != 1 {
		t.Fatalf("summary = %+v, want 2 accepted / 1 duplicate / 1 rejected", summary)
	}
	// The single-object form still works.
	one, _ := json.Marshal(submitRequest{Node: "a", SignalID: "tv-521MHz", PowerDBm: -61, At: at})
	resp2, err := http.Post(srv.URL+"/api/readings", "application/json", strings.NewReader(string(one)))
	if err != nil {
		t.Fatalf("single POST: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("single status = %s, want 202", resp2.Status)
	}
}

func TestHardenInFlightLimiter(t *testing.T) {
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(2)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Done()
		<-release
	})
	h := Harden(slow, HardenConfig{MaxInFlight: 2, RequestTimeout: time.Minute, RetryAfter: 3 * time.Second})
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	entered.Wait() // both slots occupied
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("third request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %s, want 429", resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
}

func TestHardenRequestTimeout(t *testing.T) {
	stuck := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	h := Harden(stuck, HardenConfig{RequestTimeout: 50 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %s, want 503 from the timeout handler", resp.Status)
	}
}

// lossyTransport drops every response whose sequence number is odd: the
// request reaches the server, the client sees an error. Deterministic,
// no randomness needed.
type lossyTransport struct {
	mu  sync.Mutex
	n   int
	err error
}

func (l *lossyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.n++
	drop := l.n%2 == 1
	l.mu.Unlock()
	if drop {
		resp.Body.Close()
		return nil, fmt.Errorf("lossy: response %d lost", l.n)
	}
	return resp, nil
}

func TestClientSpoolsAndDrainsWithoutDuplicates(t *testing.T) {
	reg := obs.NewRegistry()
	col := newTestCollector(t, "node-1").Instrument(reg)
	srv := httptest.NewServer(Harden(col.Handler(func() time.Time { return time.Unix(600, 0) }), HardenConfig{}))
	defer srv.Close()

	spool, err := resilience.OpenSpool(filepath.Join(t.TempDir(), "readings.jsonl"))
	if err != nil {
		t.Fatalf("spool: %v", err)
	}
	defer spool.Close()
	client, err := NewClient(ClientConfig{
		BaseURL: srv.URL,
		HTTP:    &http.Client{Transport: &lossyTransport{}, Timeout: 5 * time.Second},
		Spool:   spool,
		Retrier: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1,
		}),
		Breaker:   resilience.NewBreaker(resilience.BreakerConfig{FailureThreshold: 100}),
		BatchSize: 4,
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}

	const total = 10
	for i := 0; i < total; i++ {
		r := Reading{
			Node: "node-1", SignalID: "tv-521MHz", PowerDBm: -60,
			At: time.Unix(int64(600+i*60), 0),
		}
		if i%3 == 0 {
			r.Trace = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
		}
		if err := client.Submit(r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if client.SpoolDepth() != total {
		t.Fatalf("spool depth = %d, want %d", client.SpoolDepth(), total)
	}
	if err := client.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if client.SpoolDepth() != 0 {
		t.Fatalf("spool depth after drain = %d, want 0", client.SpoolDepth())
	}
	// What a Client ships is the plain wire form: none of it may need the
	// encoding/json fallback, or the fleet is not on the fast decode path.
	if got := reg.Counter("trust_readings_decode_fallback_total", "").Value(); got != 0 {
		t.Fatalf("trust_readings_decode_fallback_total = %v after a Client drain, want 0", got)
	}
	// Every response-lost batch was retried; dedup must have kept each
	// reading in exactly one epoch.
	anomalies := col.CloseEpochs(time.Unix(1e6, 0))
	_ = anomalies
	epochs := col.History("tv-521MHz")
	if len(epochs) != total {
		t.Fatalf("epochs = %d, want %d (one per minute window)", len(epochs), total)
	}
	for _, e := range epochs {
		if len(e.Readings) != 1 {
			t.Fatalf("epoch %v has %d readings, want 1", e.At, len(e.Readings))
		}
	}
}

func TestClientRegisterRetriesAndTolerates409(t *testing.T) {
	col := newTestCollector(t)
	srv := httptest.NewServer(col.Handler(func() time.Time { return time.Unix(0, 0) }))
	defer srv.Close()
	spool, err := resilience.OpenSpool(filepath.Join(t.TempDir(), "s.jsonl"))
	if err != nil {
		t.Fatalf("spool: %v", err)
	}
	defer spool.Close()
	client, err := NewClient(ClientConfig{
		BaseURL: srv.URL,
		HTTP:    &http.Client{Transport: &lossyTransport{}, Timeout: 5 * time.Second},
		Spool:   spool,
		Retrier: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 8, BaseDelay: time.Millisecond, Seed: 1,
		}),
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	// First attempt loses the response: the server registered the node
	// but the client retries and hits 409 — which must read as success.
	if err := client.Register(context.Background(), "node-1", "op", "rtlsdr"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, ok := col.Ledger.Node("node-1"); !ok {
		t.Fatalf("node not registered")
	}
}
