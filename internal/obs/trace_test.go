package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorcal/internal/clock"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(16)
	ctx := WithTracer(context.Background(), tr)

	ctx, parent := StartSpan(ctx, "campaign")
	cctx, child := StartSpan(ctx, "stage")
	child.End()
	// A sibling started from the parent context shares the same parent.
	_, sib := StartSpan(ctx, "stage2")
	sib.End()
	parent.End()
	_ = cctx

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot holds %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	root := byName["campaign"]
	if root.ParentID != "" {
		t.Fatalf("root span has parent %q", root.ParentID)
	}
	if root.TraceID == "" || len(root.TraceID) != 32 {
		t.Fatalf("root trace ID %q is not 32 hex digits", root.TraceID)
	}
	for _, name := range []string{"stage", "stage2"} {
		if got := byName[name].ParentID; got != root.SpanID {
			t.Fatalf("%s parent = %q, want %q", name, got, root.SpanID)
		}
		if got := byName[name].TraceID; got != root.TraceID {
			t.Fatalf("%s trace = %q, want %q", name, got, root.TraceID)
		}
	}
	// Children end before the parent, so they land in the ring first.
	if spans[2].Name != "campaign" {
		t.Fatalf("last-ended span is %q, want campaign", spans[2].Name)
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer(8)
	_, s := StartSpan(WithTracer(context.Background(), tr), "once")
	s.End()
	s.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
	var nilSpan *Span
	nilSpan.End() // must not panic
	nilSpan.SetAttr("k", "v")
	nilSpan.SetError(errors.New("x"))
	nilSpan.Event("e")
	if sc := nilSpan.Context(); sc.Valid() {
		t.Fatal("nil span has a valid context")
	}
}

func TestNilContextRoot(t *testing.T) {
	ctx, s := StartSpan(nil, "root")
	if ctx == nil || s == nil {
		t.Fatal("StartSpan(nil) returned nils")
	}
	s.End() // lands on the default tracer; just must not panic
}

func TestRingWrapCountsOverwrites(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(4).Instrument(reg)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 6; i++ {
		_, s := StartSpan(ctx, fmt.Sprintf("span-%d", i))
		s.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("snapshot holds %d spans, want capacity 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("span-%d", i+2); s.Name != want {
			t.Fatalf("span[%d] = %q, want %q (oldest first)", i, s.Name, want)
		}
	}
	// 6 spans through a 4-slot ring: 2 evictions, counted both on the
	// tracer and in the dropped-total series.
	if got := tr.Overwrites(); got != 2 {
		t.Fatalf("Overwrites() = %d, want 2", got)
	}
	_, vals := reg.Samples("trace_spans_dropped_total")
	var dropped float64
	for _, v := range vals {
		if len(v.Labels) == 1 && v.Labels[0] == "ring_overwrite" {
			dropped = v.Value
		}
	}
	if dropped != 2 {
		t.Fatalf("trace_spans_dropped_total{ring_overwrite} = %v, want 2", dropped)
	}
}

func TestResize(t *testing.T) {
	tr := NewTracer(2)
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "before")
	s.End()
	tr.Resize(8)
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("resize retained %d spans, want 0", got)
	}
	for i := 0; i < 8; i++ {
		_, s := StartSpan(ctx, "after")
		s.End()
	}
	if got := len(tr.Snapshot()); got != 8 {
		t.Fatalf("resized ring holds %d spans, want 8", got)
	}
	if got := tr.Overwrites(); got != 0 {
		t.Fatalf("filling the resized ring counted %d overwrites", got)
	}
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithTracer(context.Background(), tr)
	sctx, s := StartSpan(ctx, "handler-span")
	s.End()
	_, other := StartSpan(ctx, "other-trace")
	other.End()
	traceID := SpanFromContext(sctx).Context().TraceID.String()

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var got []SpanRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("response is not a JSON span array: %v\n%s", err, rec.Body.String())
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d spans, want 2", len(got))
	}

	// ?trace_id= filters to one trace.
	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace_id="+traceID, nil))
	got = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("filtered response: %v", err)
	}
	if len(got) != 1 || got[0].Name != "handler-span" {
		t.Fatalf("filtered spans = %+v", got)
	}

	// An empty tracer serves [] rather than null.
	rec = httptest.NewRecorder()
	NewTracer(2).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var empty []SpanRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &empty); err != nil || empty == nil {
		t.Fatalf("empty tracer served %q, want []", rec.Body.String())
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tr := NewTracer(8)
	ctx, s := StartSpan(WithTracer(context.Background(), tr), "origin")
	tp := TraceParent(ctx)
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q is not a sampled version-00 header", tp)
	}
	sc, ok := ParseTraceParent(tp)
	if !ok {
		t.Fatalf("own traceparent %q failed to parse", tp)
	}
	if sc.TraceID != s.Context().TraceID || sc.SpanID != s.Context().SpanID || !sc.Sampled {
		t.Fatalf("round-trip mismatch: %+v vs %+v", sc, s.Context())
	}

	// Inject → Extract → StartSpan continues the same trace remotely.
	h := http.Header{}
	Inject(ctx, h)
	rctx := Extract(WithTracer(context.Background(), tr), h)
	_, child := StartSpan(rctx, "remote-child")
	if child.Context().TraceID != s.Context().TraceID {
		t.Fatal("extracted child is on a different trace")
	}
	child.End()
	s.End()
	if got := len(tr.Trace(s.Context().TraceID.String())); got != 2 {
		t.Fatalf("trace lookup found %d spans, want 2", got)
	}
}

func TestParseTraceParentRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-short",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // zero trace ID
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span ID
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16) + "-01", // non-hex
		"ff-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-01", // forbidden version
		"00x" + strings.Repeat("a", 32) + "x" + strings.Repeat("a", 16) + "x01", // wrong separators
	} {
		if _, ok := ParseTraceParent(bad); ok {
			t.Fatalf("ParseTraceParent accepted %q", bad)
		}
	}
	sc, ok := ParseTraceParent("00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-00")
	if !ok || sc.Sampled {
		t.Fatalf("unsampled traceparent parsed as %+v, %v", sc, ok)
	}
}

func TestSamplingDeterministicAndPropagated(t *testing.T) {
	tr := NewTracer(64)
	tr.SetSampleRatio(0)
	ctx := WithTracer(context.Background(), tr)
	rctx, root := StartSpan(ctx, "unsampled-root")
	_, child := StartSpan(rctx, "unsampled-child")
	child.End()
	root.End()
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("ratio-0 tracer recorded %d spans", got)
	}
	// The unsampled decision still propagates valid IDs with flag 00.
	tp := TraceParent(rctx)
	if !strings.HasSuffix(tp, "-00") {
		t.Fatalf("unsampled traceparent %q should carry flags 00", tp)
	}

	// A sampled remote decision overrides the local ratio: the head
	// decision governs the whole trace.
	sc, _ := ParseTraceParent("00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01")
	_, forced := StartSpan(ContextWithRemote(ctx, sc), "forced")
	forced.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("sampled remote parent recorded %d spans, want 1", got)
	}

	// Ratio 0.5 keeps roughly half; the decision is a pure function of
	// the trace ID, so re-deciding the same IDs is stable.
	tr2 := NewTracer(4096)
	tr2.SetSampleRatio(0.5)
	kept := 0
	var ids []TraceID
	for i := 0; i < 1000; i++ {
		rctx, s := StartSpan(WithTracer(context.Background(), tr2), "p")
		ids = append(ids, SpanFromContext(rctx).Context().TraceID)
		s.End()
	}
	kept = len(tr2.Snapshot())
	if kept < 350 || kept > 650 {
		t.Fatalf("ratio 0.5 kept %d/1000 spans", kept)
	}
	want := 0
	for _, id := range ids {
		if tr2.sampled(id) {
			want++
		}
	}
	if want != kept {
		t.Fatalf("re-deciding the same IDs kept %d, recorded %d", want, kept)
	}
}

func TestSpanClockAndEvents(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1700000000, 0))
	tr := NewTracer(8)
	tr.SetClock(clk)
	ctx, s := StartSpan(WithTracer(context.Background(), tr), "timed")
	clk.Advance(250 * time.Millisecond)
	s.Event("retry", "op", "drain", "attempt", 2)
	clk.Advance(250 * time.Millisecond)
	s.SetAttr("node", "node-1")
	s.SetError(errors.New("boom"))
	s.End()
	_ = ctx
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans", len(spans))
	}
	rec := spans[0]
	if rec.Duration != 500*time.Millisecond {
		t.Fatalf("duration = %v, want 500ms from the simulated clock", rec.Duration)
	}
	if !rec.Start.Equal(time.Unix(1700000000, 0)) {
		t.Fatalf("start = %v", rec.Start)
	}
	if len(rec.Events) != 1 || rec.Events[0].Name != "retry" ||
		rec.Events[0].Attr != "op=drain attempt=2" {
		t.Fatalf("events = %+v", rec.Events)
	}
	if !rec.Events[0].At.Equal(time.Unix(1700000000, 0).Add(250 * time.Millisecond)) {
		t.Fatalf("event timestamp = %v", rec.Events[0].At)
	}
	if rec.Attrs["node"] != "node-1" || rec.Error != "boom" {
		t.Fatalf("attrs/error = %+v / %q", rec.Attrs, rec.Error)
	}
}

func TestStartRemote(t *testing.T) {
	tr := NewTracer(8)
	sc, _ := ParseTraceParent("00-" + strings.Repeat("c", 32) + "-" + strings.Repeat("d", 16) + "-01")
	s := tr.StartRemote(sc, "ingest")
	if s == nil {
		t.Fatal("sampled remote parent produced a nil span")
	}
	s.End()
	got := tr.Trace(strings.Repeat("c", 32))
	if len(got) != 1 || got[0].ParentID != strings.Repeat("d", 16) {
		t.Fatalf("remote span = %+v", got)
	}
	// Unsampled and invalid parents cost nothing.
	sc.Sampled = false
	if tr.StartRemote(sc, "x") != nil {
		t.Fatal("unsampled parent produced a span")
	}
	if tr.StartRemote(SpanContext{}, "x") != nil {
		t.Fatal("invalid parent produced a span")
	}
}

func TestSpanExporter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.jsonl")
	exp, err := NewSpanExporter(ExporterConfig{Path: path, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(8)
	tr.SetExporter(exp)
	ctx := WithTracer(context.Background(), tr)
	var traceID string
	for i := 0; i < 3; i++ {
		rctx, s := StartSpan(ctx, fmt.Sprintf("exported-%d", i))
		traceID = SpanFromContext(rctx).Context().TraceID.String()
		s.End()
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("spool holds %d lines, want 3:\n%s", len(lines), data)
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[2]), &rec); err != nil {
		t.Fatalf("line 3 is not a span: %v", err)
	}
	if rec.Name != "exported-2" || rec.TraceID != traceID {
		t.Fatalf("decoded span = %+v", rec)
	}
	// Exports after Close are dropped silently, not panics.
	_, s := StartSpan(ctx, "late")
	s.End()
}

func TestSpanExporterOverflowCounted(t *testing.T) {
	dir := t.TempDir()
	exp, err := NewSpanExporter(ExporterConfig{Path: filepath.Join(dir, "s.jsonl"), QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	tr := NewTracer(8).Instrument(reg)
	// Stall the writer: it needs exp.mu to write, so holding the lock
	// pins it mid-drain and makes the 1-slot queue overflow deterministic.
	exp.mu.Lock()
	exp.export(tr, spanRec{name: "being-written"})
	deadline := time.Now().Add(5 * time.Second)
	for len(exp.queue) != 0 { // writer has dequeued it and is blocked on mu
		if time.Now().After(deadline) {
			exp.mu.Unlock()
			t.Fatal("writer never picked up the first span")
		}
		time.Sleep(time.Millisecond)
	}
	exp.export(tr, spanRec{name: "queued"})  // fills the 1-slot queue
	exp.export(tr, spanRec{name: "dropped"}) // queue full: must drop, not block
	exp.mu.Unlock()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	_, vals := reg.Samples("trace_spans_dropped_total")
	var dropped float64
	for _, v := range vals {
		if len(v.Labels) == 1 && v.Labels[0] == "export_queue" {
			dropped = v.Value
		}
	}
	if dropped != 1 {
		t.Fatalf("trace_spans_dropped_total{export_queue} = %v, want 1", dropped)
	}
}

// spanOp is one step of a seeded span workload.
type spanOp struct {
	kind     int
	target   int         // the span the op acts on or starts under
	remote   SpanContext // parent for opUnderRemote and opRemote
	key, val string
	err      string
	kv       []interface{}
	step     time.Duration
}

const (
	opStart       = iota // StartSpan on a context holding only the tracer
	opChild              // StartSpan under span target
	opUnderRemote        // StartSpan under ContextWithRemote(remote)
	opRoot               // StartRootSpan under span target
	opRemote             // Tracer.StartRemote(remote)
	opAttr
	opError
	opEvent
	opEnd
	opAdvance
)

// spanOpWeights sets how often each kind is drawn.
var spanOpWeights = [...]int{opStart: 2, opChild: 2, opUnderRemote: 1, opRoot: 1, opRemote: 3,
	opAttr: 30, opError: 2, opEvent: 3, opEnd: 4, opAdvance: 2}

// remoteTraces is the small pool remote parents draw trace IDs from, so
// one ?trace_id= lookup finds several spans.
var remoteTraces = [3]TraceID{{0xaa, 1}, {0xbb, 2}, {0xcc, 3}}

// genSpanOps draws n ops, then ends every span. Seven attribute keys
// over four inline slots repeat and spill; ends land on ended spans,
// SetAttr on ended and unsampled ones; a ratio-0.5 tracer leaves roots
// unsampled.
func genSpanOps(seed int64, n int) []spanOp {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, w := range spanOpWeights {
		total += w
	}
	var ops []spanOp
	spans := 0
	for len(ops) < n {
		op := spanOp{kind: opStart}
		for x := rng.Intn(total); x >= spanOpWeights[op.kind]; op.kind++ {
			x -= spanOpWeights[op.kind]
		}
		if spans == 0 && op.kind != opUnderRemote && op.kind != opRemote {
			op.kind = opStart
		}
		if spans > 0 { // mostly one of the last few spans, so some gather many attributes
			op.target = spans - 1 - rng.Intn(min(spans, 3))
			if rng.Intn(8) == 0 {
				op.target = rng.Intn(spans)
			}
		}
		if rng.Intn(8) > 0 {
			op.remote.TraceID = remoteTraces[rng.Intn(len(remoteTraces))]
			rng.Read(op.remote.SpanID[:])
			op.remote.Sampled = rng.Intn(4) > 0
		}
		op.key = string(rune('a' + rng.Intn(7)))
		op.val = fmt.Sprint(rng.Intn(100))
		if rng.Intn(4) > 0 {
			op.err = fmt.Sprintf("err-%d", rng.Intn(10))
		}
		switch rng.Intn(4) {
		case 1:
			op.kv = []interface{}{"attempt", rng.Intn(5)}
		case 2:
			op.kv = []interface{}{"op", "drain", "odd"}
		}
		op.step = time.Duration(rng.Intn(5000)) * time.Microsecond
		if op.kind <= opRemote {
			spans++
		}
		ops = append(ops, op)
	}
	for i := 0; i < spans; i++ { // every span ends at last, some twice
		ops = append(ops, spanOp{kind: opEnd, target: i})
	}
	return ops
}

// spanAPI is the surface the workload drives: trace.go or the oracle.
type spanAPI struct {
	start     func(ctx context.Context, name string) (context.Context, spanHandle)
	startRoot func(ctx context.Context, name string) (context.Context, spanHandle)
	remote    func(sc SpanContext, name string) spanHandle
}

type spanHandle interface {
	SetAttr(key, value string)
	SetError(err error)
	Event(name string, kv ...interface{})
	End()
}

func driveSpans(ops []spanOp, base context.Context, clk *clock.Simulated, api spanAPI) {
	var ctxs []context.Context
	var spans []spanHandle
	push := func(ctx context.Context, s spanHandle) {
		ctxs = append(ctxs, ctx)
		spans = append(spans, s)
	}
	for i, op := range ops {
		name := fmt.Sprintf("op-%d", i)
		switch op.kind {
		case opStart:
			push(api.start(base, name))
		case opChild:
			push(api.start(ctxs[op.target], name))
		case opUnderRemote:
			push(api.start(ContextWithRemote(base, op.remote), name))
		case opRoot:
			push(api.startRoot(ctxs[op.target], name))
		case opRemote:
			push(base, api.remote(op.remote, name))
		case opAttr:
			spans[op.target].SetAttr(op.key, op.val)
		case opError:
			var err error
			if op.err != "" {
				err = errors.New(op.err)
			}
			spans[op.target].SetError(err)
		case opEvent:
			spans[op.target].Event(op.key, op.kv...)
		case opEnd:
			spans[op.target].End()
		case opAdvance:
			clk.Advance(op.step)
		}
	}
}

// seededTracer returns a ratio-0.5 tracer on a simulated clock whose
// IDs are a fixed stream, instrumented on its own registry.
func seededTracer(capacity int) (*Tracer, *clock.Simulated, *Registry) {
	reg := NewRegistry()
	tr := NewTracer(capacity).Instrument(reg)
	tr.idHi, tr.idLo = 0x5eed, 0xfeed
	clk := clock.NewSimulated(time.Unix(1700000000, 0))
	tr.SetClock(clk)
	tr.SetSampleRatio(0.5)
	return tr, clk, reg
}

// spanOutputs is what a reader sees: /debug/traces for each query, the
// span counters and the overwrite count.
func spanOutputs(t *testing.T, h http.Handler, reg *Registry, tr *Tracer, queries []string) []string {
	t.Helper()
	var out []string
	for _, q := range queries {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces"+q, nil))
		out = append(out, rec.Body.String())
	}
	for _, name := range []string{"trace_spans_recorded_total", "trace_spans_dropped_total"} {
		_, vals := reg.Samples(name)
		out = append(out, fmt.Sprint(vals))
	}
	return append(out, fmt.Sprint(tr.Overwrites()))
}

// TestSpanRecordingMatchesOracle drives trace.go and the pre-binary span
// bodies through the same seeded workloads and requires byte-identical
// /debug/traces answers, exporter lines and drop counts.
func TestSpanRecordingMatchesOracle(t *testing.T) {
	const capacity = 16
	for seed := int64(1); seed <= 12; seed++ {
		ops := genSpanOps(seed, 2000)

		tr, clk, reg := seededTracer(capacity)
		path := filepath.Join(t.TempDir(), "spans.jsonl")
		exp, err := NewSpanExporter(ExporterConfig{Path: path, QueueSize: len(ops)})
		if err != nil {
			t.Fatal(err)
		}
		tr.SetExporter(exp)
		driveSpans(ops, WithTracer(context.Background(), tr), clk, spanAPI{
			start: func(ctx context.Context, name string) (context.Context, spanHandle) {
				return StartSpan(ctx, name)
			},
			startRoot: func(ctx context.Context, name string) (context.Context, spanHandle) {
				return StartRootSpan(ctx, name)
			},
			remote: func(sc SpanContext, name string) spanHandle { return tr.StartRemote(sc, name) },
		})
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
		exported, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		otr, oclk, oreg := seededTracer(capacity)
		ot := newOracleTracer(otr, capacity)
		driveSpans(ops, context.Background(), oclk, spanAPI{
			start: func(ctx context.Context, name string) (context.Context, spanHandle) {
				return oracleStartSpan(ctx, ot, name)
			},
			startRoot: func(ctx context.Context, name string) (context.Context, spanHandle) {
				return oracleStartRootSpan(ctx, ot, name)
			},
			remote: func(sc SpanContext, name string) spanHandle { return ot.StartRemote(sc, name) },
		})

		// The workload has to reach what the comparison is about.
		var spilled, failed, annotated bool
		for _, line := range bytes.Split(bytes.TrimSpace(ot.lines), []byte("\n")) {
			var rec SpanRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			spilled = spilled || len(rec.Attrs) > inlineAttrs
			failed = failed || rec.Error != ""
			annotated = annotated || len(rec.Events) > 0
		}
		if !spilled || !failed || !annotated || ot.Overwrites() == 0 || len(ot.lines) == 0 {
			t.Fatalf("seed %d: workload too thin (spilled %v, error %v, events %v, overwrites %d)",
				seed, spilled, failed, annotated, ot.Overwrites())
		}

		queries := []string{"", "?trace_id=zz", "?trace_id=" + strings.Repeat("a", 31)}
		for _, id := range remoteTraces {
			queries = append(queries, "?trace_id="+id.String(), "?trace_id="+strings.ToUpper(id.String()))
		}
		for _, rec := range ot.Snapshot() {
			queries = append(queries, "?trace_id="+rec.TraceID)
		}
		got := spanOutputs(t, tr.Handler(), reg, tr, queries)
		oracle := spanOutputs(t, ot.Handler(), oreg, otr, queries)
		for i := range got {
			if got[i] != oracle[i] {
				q := "counters"
				if i < len(queries) {
					q = "/debug/traces" + queries[i]
				}
				t.Fatalf("seed %d, %s:\n got    %s\n oracle %s", seed, q, got[i], oracle[i])
			}
		}
		if !bytes.Equal(exported, ot.lines) {
			t.Fatalf("seed %d: exporter lines differ:\n got    %s\n oracle %s", seed, exported, ot.lines)
		}
	}
}

// TestConcurrentSpansAndReaders records spans, spilled attributes
// included, from several goroutines into a small exported ring while
// others read it; the race detector is the assertion.
func TestConcurrentSpansAndReaders(t *testing.T) {
	exp, err := NewSpanExporter(ExporterConfig{Path: filepath.Join(t.TempDir(), "s.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	tr := NewTracer(32).Instrument(NewRegistry())
	tr.SetExporter(exp)
	parent, _ := ParseTraceParent("00-" + strings.Repeat("c", 32) + "-" + strings.Repeat("d", 16) + "-01")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := tr.StartRemote(parent, "ingest")
				for k := 0; k < i%(inlineAttrs+3); k++ {
					s.SetAttr(fmt.Sprint("k", k), "v")
				}
				s.End()
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Snapshot()
				tr.Trace(parent.TraceID.String())
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Trace(parent.TraceID.String())); got != 32 {
		t.Fatalf("full ring holds %d spans of the trace, want 32", got)
	}
}

// TestSampledSpanAllocs pins what a span costs: a sampled remote span
// with two attributes allocates the Span and nothing else, and an
// unsampled StartSpan allocates the Span and the context carrying it,
// with no hex-encoded ID (each would add one).
func TestSampledSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tr := NewTracer(64)
	parent, _ := ParseTraceParent("00-" + strings.Repeat("c", 32) + "-" + strings.Repeat("d", 16) + "-01")
	if avg := testing.AllocsPerRun(200, func() { ingestSpan(tr, parent) }); avg > 1 {
		t.Fatalf("sampled remote span allocates %.1f objects, want <= 1", avg)
	}
	if got := len(tr.Snapshot()); got != 64 {
		t.Fatalf("ring holds %d spans, want a full 64", got)
	}

	tr.SetSampleRatio(0)
	ctx := WithTracer(context.Background(), tr)
	if avg := testing.AllocsPerRun(200, func() {
		_, s := StartSpan(ctx, "unsampled")
		s.End()
	}); avg > 2 {
		t.Fatalf("unsampled span allocates %.1f objects, want <= 2 (the Span and its context)", avg)
	}
}

// ingestSpan is the collector's per-reading span.
func ingestSpan(tr *Tracer, parent SpanContext) {
	s := tr.StartRemote(parent, "trust.ingest")
	s.SetAttr("node", "node-1")
	s.SetAttr("signal", "tv-521MHz")
	s.End()
}

func BenchmarkIngestSpan(b *testing.B) {
	tr := NewTracer(DefaultTraceCapacity)
	parent, _ := ParseTraceParent("00-" + strings.Repeat("c", 32) + "-" + strings.Repeat("d", 16) + "-01")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ingestSpan(tr, parent)
	}
}
