package sensorcal

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sensorcal/internal/agent"
	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/resilience"
	"sensorcal/internal/sched"
	"sensorcal/internal/spectrumd"
	"sensorcal/internal/trust"
	"sensorcal/internal/world"
)

// TestTraceEndToEnd proves the PR's distributed-tracing contract over
// the real three-daemon wire path, emulated in-process: one scheduled
// measurement produces ONE trace — rooted at the agent's poll cycle —
// whose ID is retrievable from every daemon's /debug/traces.
//
//   - agentd: agent.cycle root + agent.task + sched.lease/sched.complete
//     client spans, with a retry event from a deliberately failed first
//     lease attempt,
//   - schedd: server /api/lease and /api/complete spans extracted from
//     the traceparent the sched client injected,
//   - spectrumd: trust.ingest spans adopted from the Trace field each
//     reading carries — the linkage that survives the store-and-forward
//     spool, because the trace context rides in the reading itself, not
//     in a request header.
func TestTraceEndToEnd(t *testing.T) {
	day := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	sim := clock.NewSimulated(day)
	logger := obs.NewLogger("trace-e2e")

	// --- spectrumd: the shipped daemon on its own tracer.
	spectrumTr := obs.NewTracer(256)
	spectrum, spectrumSrv := serveSpectrumd(t, spectrumd.Config{Epoch: time.Minute, Tracer: spectrumTr})

	// --- schedd: queue + lease API on its own tracer. The first
	// /api/lease attempt is rejected with a 503 before reaching the API,
	// so the agent's retrier must retry — and leave a retry event on the
	// lease span of the measurement's trace.
	schedTr := obs.NewTracer(256)
	schedReg := obs.NewRegistry()
	q := sched.NewQueue(sched.QueueConfig{
		LeaseTTL: 5 * time.Minute,
		Clock:    sim,
		Metrics:  obs.NewRegistry(),
	})
	task := sched.Task{
		ID: sched.TaskID("node-1", day.Add(time.Hour)), Node: "node-1", Site: "rooftop",
		Start: day.Add(time.Hour), Duration: 30 * time.Second, Runs: 1,
		ExpectedAircraft: 35, Priority: 35,
	}
	if _, err := q.Add(task); err != nil {
		t.Fatal(err)
	}
	api := &sched.Server{Q: q, Log: logger, Tracer: schedTr, Obs: schedReg}
	schedMux := obs.AdminMux(schedReg, schedTr, nil)
	schedMux.Handle("/api/", api.Handler())
	var leaseCalls atomic.Int32
	schedSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/lease" && leaseCalls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		schedMux.ServeHTTP(w, r)
	}))
	defer schedSrv.Close()

	// --- agentd: its own tracer rides in the context; readings flow
	// through a real spool so the trace linkage is proven to survive
	// store-and-forward, not just a direct call.
	agentTr := obs.NewTracer(256)
	ctx := obs.WithTracer(context.Background(), agentTr)
	spool, err := resilience.OpenSpool(filepath.Join(t.TempDir(), "spool.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer spool.Close()
	tc, err := trust.NewClient(trust.ClientConfig{
		BaseURL: spectrumSrv.URL,
		Spool:   spool,
		Clock:   sim,
		Logger:  logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Register(ctx, "node-1", "trace-e2e", "rooftop"); err != nil {
		t.Fatal(err)
	}
	sc, err := sched.NewClient(sched.ClientConfig{
		BaseURL: schedSrv.URL,
		Retrier: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		}),
		Logger: logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(agent.Config{
		Node:           "node-1",
		Site:           world.RooftopSite(),
		Traffic:        agent.SimTraffic{Center: world.BuildingOrigin, Radius: 100_000, Count: 40, Seed: 7},
		Towers:         world.Towers(),
		TV:             world.TVStations(),
		Clock:          sim,
		Collector:      tc,
		FrequencyEvery: 1,
		Metrics:        obs.NewRegistry(),
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- a.RunScheduled(ctx, sc, agent.ScheduledOptions{Poll: time.Minute, MaxTasks: 1})
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("RunScheduled: %v", err)
			}
			running = false
		default:
			sim.Advance(5 * time.Minute)
			time.Sleep(time.Millisecond)
		}
	}
	// Ship the spooled readings to the collector.
	for {
		if _, more, err := tc.DrainOnce(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		} else if !more {
			break
		}
	}
	if n := spool.Len(); n != 0 {
		t.Fatalf("spool still holds %d readings after drain", n)
	}

	// One cycle did the work; its trace ID is the thread through all
	// three daemons.
	agentSpans := agentTr.Snapshot()
	var traceID string
	for _, s := range agentSpans {
		if s.Name == "agent.task" {
			traceID = s.TraceID
		}
	}
	if traceID == "" {
		t.Fatalf("no agent.task span recorded; agent spans: %+v", names(agentSpans))
	}

	agentTrace := agentTr.Trace(traceID)
	var sawCycleRoot, sawLease, sawComplete, sawRetryEvent bool
	for _, s := range agentTrace {
		switch s.Name {
		case "agent.cycle":
			sawCycleRoot = s.ParentID == ""
		case "sched.lease":
			sawLease = true
			for _, e := range s.Events {
				if e.Name == "retry" {
					sawRetryEvent = true
				}
			}
		case "sched.complete":
			sawComplete = true
		}
	}
	if !sawCycleRoot {
		t.Errorf("trace %s has no agent.cycle root span; spans: %v", traceID, names(agentTrace))
	}
	if !sawLease || !sawComplete {
		t.Errorf("trace %s missing sched client spans (lease=%v complete=%v)", traceID, sawLease, sawComplete)
	}
	if !sawRetryEvent {
		t.Errorf("trace %s lease span carries no retry event despite the injected 503", traceID)
	}

	// schedd recorded server spans under the SAME trace ID, extracted
	// from the injected traceparent.
	schedTrace := schedTr.Trace(traceID)
	var sawServerLease bool
	for _, s := range schedTrace {
		if s.Name == "server /api/lease" && s.ParentID != "" {
			sawServerLease = true
		}
	}
	if !sawServerLease {
		t.Errorf("schedd has no server /api/lease span for trace %s; spans: %v", traceID, names(schedTrace))
	}

	// spectrumd adopted the trace from the readings' Trace field: ingest
	// spans parented into the agent's trace even though they arrived via
	// a spool drain batch that mixes traces.
	var sawIngest bool
	for _, s := range spectrumTr.Trace(traceID) {
		if s.Name == "trust.ingest" && s.ParentID != "" {
			sawIngest = true
		}
	}
	if !sawIngest {
		t.Errorf("spectrumd has no trust.ingest span for trace %s", traceID)
	}

	// The same trace ID is retrievable over each daemon's debug surface —
	// what an operator would actually do.
	for _, srv := range []*httptest.Server{schedSrv, spectrumSrv} {
		spans := fetchTrace(t, srv.URL, traceID)
		if len(spans) == 0 {
			t.Errorf("GET %s/debug/traces?trace_id=%s returned no spans", srv.URL, traceID)
		}
		for _, s := range spans {
			if s.TraceID != traceID {
				t.Errorf("debug endpoint returned span of trace %s, want %s", s.TraceID, traceID)
			}
		}
	}

	// Closing the epoch roots its own trace (it aggregates many), so the
	// measurement trace must NOT grow — but close spans must exist.
	spectrum.ClosePass(sim.Now().Add(24 * time.Hour))
	var sawClose bool
	for _, s := range spectrumTr.Snapshot() {
		if s.Name == "replica.merge_close" {
			sawClose = true
			if s.TraceID == traceID {
				t.Errorf("epoch close joined a reading's trace; want its own root")
			}
		}
	}
	if !sawClose {
		t.Errorf("no replica.merge_close span recorded")
	}
}

// fetchTrace pulls one trace from a daemon's debug surface.
func fetchTrace(t *testing.T, base, traceID string) []obs.SpanRecord {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/debug/traces?trace_id=%s", base, traceID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []obs.SpanRecord
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatalf("decoding %s/debug/traces: %v", base, err)
	}
	return spans
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
