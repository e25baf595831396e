package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/resilience"
	"sensorcal/internal/trust"
)

// TestWireFidelity pins the generator to what agents send. The same
// readings go through a real trust.Client (durable spool, drain, POST)
// into a capturing server, and the generator's body must be the same
// bytes: field set, order, number and time formats, key and trace. If
// the client's wire form changes, this fails before any number drifts.
func TestWireFidelity(t *testing.T) {
	var gotBody []byte
	var gotHeader http.Header
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotBody, _ = io.ReadAll(r.Body)
		gotHeader = r.Header.Clone()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"accepted":12,"duplicates":0,"rejected":0}`+"\n")
	}))
	defer srv.Close()

	spool, err := resilience.OpenSpool(filepath.Join(t.TempDir(), "spool.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer spool.Close()
	client, err := trust.NewClient(trust.ClientConfig{BaseURL: srv.URL, Spool: spool})
	if err != nil {
		t.Fatal(err)
	}

	f := newFleet(3, ingestHoods, ingestPerHood, ingestSignals)
	p := newIngestPlanner(f, 0)
	// A time with sub-second digits and trailing zeros, so RFC3339Nano's
	// trimming shows; two rounds, so the array form and distinct keys do.
	at := time.Date(2026, 9, 30, 12, 0, 1, 250_100_000, time.UTC)
	readings := p.fill(nil, requestPlan{node: 5, rounds: 2}, at, ingestEpoch)
	for _, r := range readings {
		if r.Key != trust.ReadingKey(r) {
			t.Fatalf("generator key %q, trust.ReadingKey gives %q", r.Key, trust.ReadingKey(r))
		}
		if sc, ok := obs.ParseTraceParent(r.Trace); !ok || !sc.Sampled {
			t.Fatalf("trace %q is not a sampled traceparent", r.Trace)
		}
		if err := client.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if n, _, err := client.DrainOnce(context.Background()); err != nil || n != len(readings) {
		t.Fatalf("drain acked %d of %d: %v", n, len(readings), err)
	}

	want := appendBatch(nil, readings)
	if !bytes.Equal(gotBody, want) {
		t.Errorf("the generator's body differs from trust.Client's\nclient:    %s\ngenerator: %s", gotBody, want)
	}
	// The generator sets by hand what the client's post sets.
	if ct := gotHeader.Get("Content-Type"); ct != "application/json" {
		t.Errorf("client Content-Type %q; the generator sends application/json", ct)
	}
	if _, ok := obs.ParseTraceParent(gotHeader.Get("Traceparent")); !ok {
		t.Errorf("client sent no traceparent header (%q); the generator sends one per request", gotHeader.Get("Traceparent"))
	}
}

// TestAckParserReadsTheCollector checks the hand-written 202 parser
// against a real collector's response.
func TestAckParserReadsTheCollector(t *testing.T) {
	col := trust.NewShardedCollector(shippedStripes)
	f := newFleet(3, 2, 4, 3)
	for _, id := range f.nodes {
		if err := col.Ledger.Register(trust.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	p := newIngestPlanner(f, 0)
	readings := p.fill(nil, requestPlan{node: 1, rounds: 10}, time.Now().UTC(), ingestEpoch)
	body := appendBatch(nil, readings)
	h := col.Handler(time.Now)
	for pass, want := range [][3]int{{len(readings), 0, 0}, {0, len(readings), 0}} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/readings", bytes.NewReader(body)))
		acc, dup, rej, ok := parseBatchResponse(w.Body.Bytes())
		if w.Code != http.StatusAccepted || !ok || [3]int{acc, dup, rej} != want {
			t.Errorf("pass %d: status %d, parsed %d/%d/%d ok=%v from %s, want %v", pass, w.Code, acc, dup, rej, ok, w.Body.Bytes(), want)
		}
	}
}
