package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// The span bodies as they were before a span was recorded in binary:
// every Start hex-encoded the IDs into a SpanRecord, SetAttr built its
// map, and the ring held SpanRecords. They stay here as the reference
// TestSpanRecordingMatchesOracle compares /debug/traces and the exporter
// lines against; production records spanRecs in trace.go.

// oracleTracer borrows IDs, clock, sampling and metrics from the
// embedded Tracer, so two tracers seeded alike draw the same IDs, and
// keeps its own ring of SpanRecords. lines collects what the exporter's
// writer would have appended.
type oracleTracer struct {
	*Tracer

	mu   sync.Mutex
	ring []SpanRecord
	next int
	full bool

	lines []byte
}

func newOracleTracer(t *Tracer, capacity int) *oracleTracer {
	return &oracleTracer{Tracer: t, ring: make([]SpanRecord, capacity)}
}

type oracleSpan struct {
	tracer  *oracleTracer
	sc      SpanContext
	sampled bool
	ended   atomic.Bool

	mu  sync.Mutex
	rec SpanRecord
}

const oracleSpanKey ctxKey = -1

func oracleStartSpan(ctx context.Context, t *oracleTracer, name string) (context.Context, *oracleSpan) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &oracleSpan{tracer: t}
	switch {
	case ctx.Value(oracleSpanKey) != nil:
		parent := ctx.Value(oracleSpanKey).(*oracleSpan)
		s.sc.TraceID = parent.sc.TraceID
		s.sampled = parent.sampled
		s.rec.ParentID = parent.sc.SpanID.String()
	default:
		if rsc, ok := ctx.Value(remoteKey).(SpanContext); ok && rsc.Valid() {
			s.sc.TraceID = rsc.TraceID
			s.sampled = rsc.Sampled
			s.rec.ParentID = rsc.SpanID.String()
		} else {
			s.sc.TraceID = t.newTraceID()
			s.sampled = t.sampled(s.sc.TraceID)
		}
	}
	s.sc.SpanID = t.newSpanID()
	s.sc.Sampled = s.sampled
	s.rec.TraceID = s.sc.TraceID.String()
	s.rec.SpanID = s.sc.SpanID.String()
	s.rec.Name = name
	s.rec.Start = t.now()
	return context.WithValue(ctx, oracleSpanKey, s), s
}

func oracleStartRootSpan(ctx context.Context, t *oracleTracer, name string) (context.Context, *oracleSpan) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &oracleSpan{tracer: t}
	s.sc.TraceID = t.newTraceID()
	s.sampled = t.sampled(s.sc.TraceID)
	s.sc.SpanID = t.newSpanID()
	s.sc.Sampled = s.sampled
	s.rec.TraceID = s.sc.TraceID.String()
	s.rec.SpanID = s.sc.SpanID.String()
	s.rec.Name = name
	s.rec.Start = t.now()
	return context.WithValue(ctx, oracleSpanKey, s), s
}

func (t *oracleTracer) StartRemote(parent SpanContext, name string) *oracleSpan {
	if !parent.Valid() || !parent.Sampled {
		return nil
	}
	s := &oracleSpan{tracer: t, sampled: true}
	s.sc = SpanContext{TraceID: parent.TraceID, SpanID: t.newSpanID(), Sampled: true}
	s.rec.TraceID = s.sc.TraceID.String()
	s.rec.SpanID = s.sc.SpanID.String()
	s.rec.ParentID = parent.SpanID.String()
	s.rec.Name = name
	s.rec.Start = t.now()
	return s
}

func (s *oracleSpan) SetAttr(key, value string) {
	if s == nil || !s.sampled || s.ended.Load() {
		return
	}
	s.mu.Lock()
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string, 4)
	}
	s.rec.Attrs[key] = value
	s.mu.Unlock()
}

func (s *oracleSpan) SetError(err error) {
	if s == nil || err == nil || !s.sampled || s.ended.Load() {
		return
	}
	s.mu.Lock()
	s.rec.Error = err.Error()
	s.mu.Unlock()
}

func (s *oracleSpan) Event(name string, kv ...interface{}) {
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
	s.rec.Events = append(s.rec.Events, SpanEvent{At: at, Name: name, Attr: attr})
	s.mu.Unlock()
}

func (s *oracleSpan) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	if !s.sampled {
		return
	}
	t := s.tracer
	s.mu.Lock()
	s.rec.Duration = t.now().Sub(s.rec.Start)
	rec := s.rec
	s.mu.Unlock()
	t.record(rec)
}

func (t *oracleTracer) record(rec SpanRecord) {
	t.mu.Lock()
	evicted := t.full || t.next < len(t.ring) && t.ring[t.next].SpanID != ""
	t.ring[t.next] = rec
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
	// SpanExporter.write's formatting, without the file.
	if line, err := json.Marshal(rec); err == nil {
		t.lines = append(append(t.lines, line...), '\n')
	}
}

func (t *oracleTracer) Snapshot() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	if t.full {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}

func (t *oracleTracer) Trace(traceID string) []SpanRecord {
	var out []SpanRecord
	for _, rec := range t.Snapshot() {
		if rec.TraceID == traceID {
			out = append(out, rec)
		}
	}
	return out
}

func (t *oracleTracer) Handler() http.Handler {
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
