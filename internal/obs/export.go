package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// SpanExporter durably persists finished spans as JSON Lines, one span
// per line — the same append-only shape as the resilience spool's WAL,
// minus the ack half (spans are telemetry, not work). The design rule is
// the same one the trust hot path lives by: the recording goroutine must
// never wait on disk. End hands the span to a bounded queue; a single
// background writer drains it. When the queue is full the span is
// dropped and counted (trace_spans_dropped_total{reason="export_queue"})
// — backpressure on telemetry would invert the service's priorities.
type SpanExporter struct {
	path string

	queue chan spanRec
	stop  chan struct{}
	done  chan struct{}

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	size int64

	closeOnce sync.Once
}

// ExporterConfig assembles a SpanExporter.
type ExporterConfig struct {
	// Path of the JSONL spool file. Appended to if it exists.
	Path string
	// QueueSize bounds spans awaiting the writer; zero means 1024.
	QueueSize int
}

// exportMaxBytes bounds the spool file: an append that would exceed it
// truncates the spool first (oldest spans lost). Telemetry is bounded,
// always.
const exportMaxBytes = 64 << 20

// NewSpanExporter opens (or creates) the spool file and starts the
// background writer.
func NewSpanExporter(cfg ExporterConfig) (*SpanExporter, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("obs: span exporter needs a path")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: span exporter: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: span exporter: %w", err)
	}
	e := &SpanExporter{
		path:  cfg.Path,
		queue: make(chan spanRec, cfg.QueueSize),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		f:     f,
		w:     bufio.NewWriterSize(f, 32<<10),
		size:  st.Size(),
	}
	go e.run()
	return e, nil
}

// export offers one span to the writer without blocking; the writer
// formats it, off the recording goroutine. t supplies the drop
// accounting. The queue is never closed (recording goroutines may
// race Close), only abandoned: post-Close sends land in the buffer and
// are garbage-collected with it.
func (e *SpanExporter) export(t *Tracer, rec spanRec) {
	select {
	case <-e.stop:
		return
	default:
	}
	select {
	case e.queue <- rec:
	default:
		t.dropped("export_queue")
	}
}

// run is the background writer: drain the queue, flush when it idles,
// exit once Close signals and the backlog is written.
func (e *SpanExporter) run() {
	defer close(e.done)
	for {
		select {
		case rec := <-e.queue:
			e.write(rec)
			if len(e.queue) == 0 {
				e.mu.Lock()
				if e.w != nil {
					e.w.Flush()
				}
				e.mu.Unlock()
			}
		case <-e.stop:
			for {
				select {
				case rec := <-e.queue:
					e.write(rec)
				default:
					return
				}
			}
		}
	}
}

// write appends one span, rotating (truncate-and-restart, the bounded
// alternative to unbounded telemetry growth) when the cap is hit.
func (e *SpanExporter) write(rec spanRec) {
	line, err := json.Marshal(rec.spanRecord())
	if err != nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.w == nil {
		return
	}
	if e.size+int64(len(line))+1 > exportMaxBytes {
		e.w.Flush()
		if err := e.f.Truncate(0); err == nil {
			if _, err := e.f.Seek(0, 0); err == nil {
				e.size = 0
			}
		}
	}
	n, _ := e.w.Write(line)
	e.w.WriteByte('\n')
	e.size += int64(n) + 1
}

// Close flushes buffered spans and releases the file. Spans exported
// after Close are dropped silently.
func (e *SpanExporter) Close() error {
	var err error
	e.closeOnce.Do(func() {
		close(e.stop)
		<-e.done
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.w != nil {
			err = e.w.Flush()
			if cerr := e.f.Close(); err == nil {
				err = cerr
			}
			e.w, e.f = nil, nil
		}
	})
	return err
}
