package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensorcal/internal/clock"
)

// Distributed tracing for the agentd→schedd→spectrumd pipeline. A trace
// is identified by a 128-bit trace ID that crosses process boundaries in
// the W3C `traceparent` header; each process records its own spans (with
// 64-bit span IDs and parent links) into a fixed-size ring dumpable from
// the admin mux — GET /debug/traces?trace_id= reassembles one request's
// path through a daemon without dragging in a tracing stack. Sampling is
// head-based and deterministic: the root's trace-ID-ratio decision rides
// the traceparent sampled flag, so one decision governs the whole trace
// and an unsampled request costs ID generation, nothing more.

// TraceID is the 128-bit identifier shared by every span of one trace.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 32-digit lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the 64-bit identifier of one span.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-digit lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated part of a span: what a child (local or
// remote) needs to link itself to its parent.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the head decision: true means every span of this trace
	// is recorded, false means none are. Children inherit it verbatim.
	Sampled bool
}

// Valid reports whether the context can parent a span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// SpanEvent is a timestamped annotation on a span: a retry attempt, a
// breaker transition — the "why was this slow" detail.
type SpanEvent struct {
	At   time.Time `json:"at"`
	Name string    `json:"name"`
	Attr string    `json:"attr,omitempty"`
}

// SpanRecord is one finished span, as /debug/traces and the exporter
// serve it.
type SpanRecord struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Error    string            `json:"error,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Events   []SpanEvent       `json:"events,omitempty"`
}

// inlineAttrs is how many attributes a span holds without a map: the
// four an HTTP span sets, and the two or three of a per-reading ingest
// span.
const inlineAttrs = 4

// spanRec is a span as it is recorded and as the ring keeps it: IDs in
// binary and the first attributes inline, so recording a span formats
// and allocates nothing. SpanRecord is built from it only when the ring
// is read or the exporter writes it.
type spanRec struct {
	traceID  TraceID
	spanID   SpanID
	parentID SpanID // zero for a root span
	name     string
	start    time.Time
	duration time.Duration
	err      string
	nattrs   int
	attrs    [inlineAttrs][2]string // key, value
	more     map[string]string      // attributes past the inline ones
	events   []SpanEvent
}

// setAttr sets key to value; a repeated key keeps its last value.
func (r *spanRec) setAttr(key, value string) {
	for i := range r.attrs[:r.nattrs] {
		if r.attrs[i][0] == key {
			r.attrs[i][1] = value
			return
		}
	}
	if r.nattrs < inlineAttrs {
		r.attrs[r.nattrs] = [2]string{key, value}
		r.nattrs++
		return
	}
	if r.more == nil {
		r.more = make(map[string]string, 4)
	}
	r.more[key] = value
}

// spanRecord formats r as the exported SpanRecord.
func (r *spanRec) spanRecord() SpanRecord {
	out := SpanRecord{
		TraceID: r.traceID.String(), SpanID: r.spanID.String(),
		Name: r.name, Start: r.start, Duration: r.duration,
		Error: r.err, Events: r.events,
	}
	if !r.parentID.IsZero() {
		out.ParentID = r.parentID.String()
	}
	if r.nattrs > 0 {
		out.Attrs = make(map[string]string, r.nattrs+len(r.more))
		for _, kv := range r.attrs[:r.nattrs] {
			out.Attrs[kv[0]] = kv[1]
		}
		for k, v := range r.more {
			out.Attrs[k] = v
		}
	}
	return out
}

// tracerMetrics is the opt-in instrumentation (Instrument pattern shared
// with the resilience primitives).
type tracerMetrics struct {
	recorded *Counter
	dropped  *CounterVec // reason
}

// Tracer collects finished spans into a ring buffer. The zero value is
// not usable; call NewTracer.
type Tracer struct {
	clk       atomic.Pointer[clock.Clock]
	threshold atomic.Uint64 // sample when uint64(traceID tail) < threshold
	exporter  atomic.Pointer[SpanExporter]

	idMu  sync.Mutex
	idHi  uint64        // splitmix64 state for trace IDs
	idLo  uint64        // splitmix64 state for span IDs
	ruses atomic.Uint64 // ring overwrites since construction

	mu   sync.Mutex
	ring []spanRec
	next int
	full bool

	m atomic.Pointer[tracerMetrics]
}

// DefaultTraceCapacity is the default ring size.
const DefaultTraceCapacity = 4096

// NewTracer returns a tracer retaining the last capacity finished spans
// (DefaultTraceCapacity if capacity <= 0), sampling every trace, on the
// wall clock.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{ring: make([]spanRec, capacity)}
	t.threshold.Store(math.MaxUint64)
	var seed [16]byte
	if _, err := rand.Read(seed[:]); err != nil {
		binary.BigEndian.PutUint64(seed[:8], uint64(time.Now().UnixNano()))
	}
	t.idHi = binary.BigEndian.Uint64(seed[:8])
	t.idLo = binary.BigEndian.Uint64(seed[8:])
	var clk clock.Clock = clock.System{}
	t.clk.Store(&clk)
	return t
}

// defaultTracer is the process-wide tracer the daemons expose.
var defaultTracer = NewTracer(DefaultTraceCapacity)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// SetClock injects the time source spans sample Start and Duration from.
// Tests pass clock.Simulated so span durations are deterministic; the
// default is the wall clock.
func (t *Tracer) SetClock(c clock.Clock) {
	if c == nil {
		c = clock.System{}
	}
	t.clk.Store(&c)
}

func (t *Tracer) now() time.Time { return (*t.clk.Load()).Now() }

// SetSampleRatio sets the head-sampling probability in [0,1] for traces
// rooted at this tracer. The decision is a pure function of the trace ID
// (OTel's trace-ID-ratio scheme), so every tracer configured with the
// same ratio agrees about the same trace.
func (t *Tracer) SetSampleRatio(ratio float64) {
	switch {
	case ratio <= 0:
		t.threshold.Store(0)
	case ratio >= 1:
		t.threshold.Store(math.MaxUint64)
	default:
		t.threshold.Store(uint64(ratio * float64(math.MaxUint64)))
	}
}

// sampled applies the trace-ID-ratio decision to id.
func (t *Tracer) sampled(id TraceID) bool {
	th := t.threshold.Load()
	if th == math.MaxUint64 {
		return true
	}
	return binary.BigEndian.Uint64(id[8:]) < th
}

// SetExporter attaches a durable span sink: every recorded span is also
// offered to e (non-blocking; overflow is counted, never waited on).
// Pass nil to detach.
func (t *Tracer) SetExporter(e *SpanExporter) { t.exporter.Store(e) }

// Resize replaces the ring with one holding capacity spans, discarding
// retained history. Daemons call it at boot from -trace-capacity.
func (t *Tracer) Resize(capacity int) {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t.mu.Lock()
	t.ring = make([]spanRec, capacity)
	t.next = 0
	t.full = false
	t.mu.Unlock()
}

// Overwrites returns how many retained spans the ring has evicted to make
// room for newer ones since construction.
func (t *Tracer) Overwrites() uint64 { return t.ruses.Load() }

// Instrument registers the tracer's metrics on reg (the process-wide
// default when nil) and returns t for chaining.
//
// Exposed series:
//
//	trace_spans_recorded_total         — sampled spans recorded into the ring
//	trace_spans_dropped_total{reason}  — spans lost: ring_overwrite (ring
//	                                     evicted a retained span), export_queue
//	                                     (exporter backlog full), export_write
//	                                     (exporter I/O failure)
func (t *Tracer) Instrument(reg *Registry) *Tracer {
	if reg == nil {
		reg = Default()
	}
	t.m.Store(&tracerMetrics{
		recorded: reg.Counter("trace_spans_recorded_total",
			"Sampled spans recorded into the trace ring."),
		dropped: reg.CounterVec("trace_spans_dropped_total",
			"Spans lost before they could be kept, by reason.", "reason"),
	})
	return t
}

func (t *Tracer) dropped(reason string) {
	if m := t.m.Load(); m != nil {
		m.dropped.With(reason).Inc()
	}
}

// splitmix64 advances the given state and returns the next value.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newTraceID generates a random-looking, process-unique 128-bit ID.
func (t *Tracer) newTraceID() TraceID {
	t.idMu.Lock()
	hi := splitmix64(&t.idHi)
	lo := splitmix64(&t.idLo)
	t.idMu.Unlock()
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], hi)
	binary.BigEndian.PutUint64(id[8:], lo)
	if id.IsZero() { // astronomically unlikely; zero is "invalid"
		id[0] = 1
	}
	return id
}

// newSpanID generates a 64-bit span ID.
func (t *Tracer) newSpanID() SpanID {
	t.idMu.Lock()
	v := splitmix64(&t.idLo)
	t.idMu.Unlock()
	var id SpanID
	binary.BigEndian.PutUint64(id[:], v)
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

// Span is an in-flight operation. End it exactly once. All methods are
// safe on a nil receiver and after End (late Events are dropped).
type Span struct {
	tracer  *Tracer
	sc      SpanContext
	sampled bool
	ended   atomic.Bool

	mu  sync.Mutex
	rec spanRec // IDs are filled in from sc at End
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	remoteKey
	stateKey
)

// WithTracer returns a context routing StartSpan to t instead of the
// default tracer.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFromContext returns the tracer StartSpan would use for ctx.
func TracerFromContext(ctx context.Context) *Tracer {
	if ctx != nil {
		if v, ok := ctx.Value(tracerKey).(*Tracer); ok {
			return v
		}
	}
	return defaultTracer
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// ContextWithRemote marks sc as the parent for the next StartSpan — the
// receiving half of propagation (Extract feeds it).
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, remoteKey, sc)
}

// StartSpan begins a span named name. The span's parent is the span
// already in ctx, or a remote parent planted by ContextWithRemote; with
// neither the span roots a new trace and takes the tracer's sampling
// decision. The returned context carries the new span so children nest.
// Pass a nil ctx for a root span on the default tracer.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := TracerFromContext(ctx)
	s := &Span{tracer: t}
	switch {
	case ctx.Value(spanKey) != nil:
		parent := ctx.Value(spanKey).(*Span)
		s.sc.TraceID = parent.sc.TraceID
		s.sampled = parent.sampled
		s.rec.parentID = parent.sc.SpanID
	default:
		if rsc, ok := ctx.Value(remoteKey).(SpanContext); ok && rsc.Valid() {
			s.sc.TraceID = rsc.TraceID
			s.sampled = rsc.Sampled
			s.rec.parentID = rsc.SpanID
		} else {
			s.sc.TraceID = t.newTraceID()
			s.sampled = t.sampled(s.sc.TraceID)
		}
	}
	s.sc.SpanID = t.newSpanID()
	s.sc.Sampled = s.sampled
	s.rec.name = name
	s.rec.start = t.now()
	return context.WithValue(ctx, spanKey, s), s
}

// StartRootSpan begins a new trace regardless of any span or remote
// parent already in ctx — the per-lease entry point of a long-running
// loop, where chaining every cycle onto one ancestor would produce a
// single useless trace the size of the process lifetime.
func StartRootSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := TracerFromContext(ctx)
	s := &Span{tracer: t}
	s.sc.TraceID = t.newTraceID()
	s.sampled = t.sampled(s.sc.TraceID)
	s.sc.SpanID = t.newSpanID()
	s.sc.Sampled = s.sampled
	s.rec.name = name
	s.rec.start = t.now()
	return context.WithValue(ctx, spanKey, s), s
}

// StartRemote begins a span whose parent lives in another process — the
// collector linking an ingested reading back to the agent trace that
// produced it. Unsampled or invalid parents return nil (every Span
// method tolerates that), so the caller pays nothing for them.
func (t *Tracer) StartRemote(parent SpanContext, name string) *Span {
	if !parent.Valid() || !parent.Sampled {
		return nil
	}
	s := &Span{tracer: t, sampled: true}
	s.sc = SpanContext{TraceID: parent.TraceID, SpanID: t.newSpanID(), Sampled: true}
	s.rec.parentID = parent.SpanID
	s.rec.name = name
	s.rec.start = t.now()
	return s
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr attaches a key=value attribute. No-op on nil or unsampled
// spans.
func (s *Span) SetAttr(key, value string) {
	if s == nil || !s.sampled || s.ended.Load() {
		return
	}
	s.mu.Lock()
	s.rec.setAttr(key, value)
	s.mu.Unlock()
}

// SetError marks the span failed. No-op on nil spans or nil errors.
func (s *Span) SetError(err error) {
	if s == nil || err == nil || !s.sampled || s.ended.Load() {
		return
	}
	s.mu.Lock()
	s.rec.err = err.Error()
	s.mu.Unlock()
}

// Event appends a timestamped annotation, formatting kv as alternating
// key=value pairs. No-op on nil or unsampled spans.
func (s *Span) Event(name string, kv ...interface{}) {
	if s == nil || !s.sampled || s.ended.Load() {
		return
	}
	var attr string
	if len(kv) > 0 {
		var sb strings.Builder
		for i := 0; i < len(kv); i += 2 {
			if i > 0 {
				sb.WriteByte(' ')
			}
			if i+1 < len(kv) {
				fmt.Fprintf(&sb, "%v=%v", kv[i], kv[i+1])
			} else {
				fmt.Fprintf(&sb, "%v", kv[i])
			}
		}
		attr = sb.String()
	}
	at := s.tracer.now()
	s.mu.Lock()
	s.rec.events = append(s.rec.events, SpanEvent{At: at, Name: name, Attr: attr})
	s.mu.Unlock()
}

// End finishes the span, recording it into the tracer's ring (and the
// exporter, if attached) when sampled. Duplicate Ends are ignored.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	if !s.sampled {
		return
	}
	t := s.tracer
	s.mu.Lock()
	s.rec.traceID, s.rec.spanID = s.sc.TraceID, s.sc.SpanID
	s.rec.duration = t.now().Sub(s.rec.start)
	t.record(&s.rec)
	s.mu.Unlock()
}

// record copies one finished span into the ring, counting evictions.
func (t *Tracer) record(rec *spanRec) {
	t.mu.Lock()
	evicted := t.full || t.next < len(t.ring) && !t.ring[t.next].spanID.IsZero()
	t.ring[t.next] = *rec
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
	if evicted {
		t.ruses.Add(1)
		t.dropped("ring_overwrite")
	}
	if m := t.m.Load(); m != nil {
		m.recorded.Inc()
	}
	if e := t.exporter.Load(); e != nil {
		e.export(t, *rec)
	}
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	return t.retained(func(*spanRec) bool { return true })
}

// Trace returns the retained spans of one trace (32 lowercase hex
// digits), oldest first.
func (t *Tracer) Trace(traceID string) []SpanRecord {
	var id TraceID
	if len(traceID) != 2*len(id) || !lowerHex(id[:], traceID) {
		return nil
	}
	return t.retained(func(r *spanRec) bool { return r.traceID == id })
}

// retained formats the retained spans keep accepts, oldest first. The
// ring lock is held only to copy them out.
func (t *Tracer) retained(keep func(*spanRec) bool) []SpanRecord {
	t.mu.Lock()
	var older []spanRec
	if t.full {
		older = t.ring[t.next:]
	}
	var recs []spanRec
	for _, part := range [2][]spanRec{older, t.ring[:t.next]} {
		for i := range part {
			if keep(&part[i]) {
				recs = append(recs, part[i])
			}
		}
	}
	t.mu.Unlock()
	var out []SpanRecord
	for i := range recs {
		out = append(out, recs[i].spanRecord())
	}
	return out
}

// Handler serves the retained spans as a JSON array (newest data is at
// the end). `?trace_id=<32-hex>` filters to one trace — the lookup the
// cross-daemon e2e smoke drives. Mounted as GET /debug/traces.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var spans []SpanRecord
		if id := req.URL.Query().Get("trace_id"); id != "" {
			spans = t.Trace(strings.ToLower(id))
		} else {
			spans = t.Snapshot()
		}
		if spans == nil {
			spans = []SpanRecord{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(spans)
	})
}

// W3C Trace Context propagation (https://www.w3.org/TR/trace-context/):
//
//	traceparent: 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// tracestate is passed through opaquely so a mixed fleet does not strip
// other systems' state.

// TraceParentHeader and TraceStateHeader are the W3C header names.
const (
	TraceParentHeader = "traceparent"
	TraceStateHeader  = "tracestate"
)

// FormatTraceParent renders sc as a version-00 traceparent value.
func FormatTraceParent(sc SpanContext) string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceParent parses a traceparent value: exactly the 55 characters
// of the version-00 layout, in lowercase hex, under any version but ff.
// A value with more, with uppercase hex or with a zero ID is rejected.
func ParseTraceParent(s string) (SpanContext, bool) {
	var sc SpanContext
	var version, flags [1]byte
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' ||
		!lowerHex(version[:], s[:2]) || version[0] == 0xff ||
		!lowerHex(sc.TraceID[:], s[3:35]) || !lowerHex(sc.SpanID[:], s[36:52]) || !lowerHex(flags[:], s[53:]) {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, sc.Valid()
}

// lowerHex decodes the 2·len(dst) lowercase hex digits of src into dst,
// or reports false.
func lowerHex(dst []byte, src string) bool {
	for i := range dst {
		hi, lo := unhexLower[src[2*i]], unhexLower[src[2*i+1]]
		if hi|lo > 0x0f {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// unhexLower maps a lowercase hex digit to its value and any other byte
// to 0xff.
var unhexLower = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i)
	}
	return t
}()

// TraceParent returns the current span's serialized context, or "" when
// ctx carries no span — the form a trust.Reading carries so a spooled
// replay still links back to the measurement trace.
func TraceParent(ctx context.Context) string {
	s := SpanFromContext(ctx)
	if s == nil {
		return ""
	}
	return FormatTraceParent(s.sc)
}

// Inject writes the current span's context into h (plus any tracestate
// extracted earlier on this request path). No-op when ctx has no span.
func Inject(ctx context.Context, h http.Header) {
	s := SpanFromContext(ctx)
	if s == nil {
		return
	}
	h.Set(TraceParentHeader, FormatTraceParent(s.sc))
	if ctx != nil {
		if state, ok := ctx.Value(stateKey).(string); ok && state != "" {
			h.Set(TraceStateHeader, state)
		}
	}
}

// Extract reads propagation headers from h into ctx: the remote parent
// (consumed by the next StartSpan) and the opaque tracestate (re-emitted
// by Inject). With no valid traceparent, ctx is returned unchanged.
func Extract(ctx context.Context, h http.Header) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	sc, ok := ParseTraceParent(h.Get(TraceParentHeader))
	if !ok {
		return ctx
	}
	ctx = ContextWithRemote(ctx, sc)
	if state := h.Get(TraceStateHeader); state != "" {
		ctx = context.WithValue(ctx, stateKey, state)
	}
	return ctx
}
