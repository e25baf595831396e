package stream

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"sensorcal/internal/clock"
	"sensorcal/internal/dsp"
	"sensorcal/internal/obs"
	"sensorcal/internal/pipeline"
)

// Backpressure errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull: the bounded frame queue is full; shed with 429 +
	// Retry-After rather than queueing unboundedly.
	ErrQueueFull = errors.New("stream: frame queue full")
	// ErrDegraded is never returned: the service has no failing
	// aggregation path to shed on since the fold's inputs are validated at
	// Ingest. It stays exported because the bench harness names it.
	ErrDegraded = errors.New("stream: aggregation degraded")
)

// Config shapes a Service.
type Config struct {
	// FFTSize is the frame length every sensor streams. Zero means 256 —
	// small frames bound queue memory at fleet scale (10k queued frames
	// at 256 samples ≈ 40 MB, versus 2.5 GB at 16k).
	FFTSize int
	// MaxSessions bounds the session table. Zero means 16384.
	MaxSessions int
	// IdleAfter evicts sessions quiet for this long. Zero means 60 s.
	IdleAfter time.Duration
	// SweepEvery is the eviction sweep period. Zero means IdleAfter/4.
	SweepEvery time.Duration
	// QueueCap bounds the ingest queue. Zero means 8192.
	QueueCap int
	// MaxBatch caps frames per engine batch; a batch is whatever is queued
	// when the dispatcher comes back for more, up to this. Zero means 64.
	MaxBatch int
	// Workers bounds the FFT stage's parallelism across the pipeline
	// pool. Zero means GOMAXPROCS.
	Workers int
	// Grid shapes the occupancy aggregation.
	Grid GridConfig
	// Registry receives the stream metrics. Nil means obs.Default().
	Registry *obs.Registry
	// Tracer receives the batch spans (stream.batch → stream.fft_batch /
	// stream.fold). Nil means the default tracer.
	Tracer *obs.Tracer
	// Clock drives timestamps and sweeps. Nil means wall clock.
	Clock clock.Clock
	// RetryAfter is the hint returned with shed responses. Zero means 1 s.
	RetryAfter time.Duration
}

func (c *Config) fill() {
	if c.FFTSize <= 0 {
		c.FFTSize = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16384
	}
	if c.IdleAfter <= 0 {
		c.IdleAfter = 60 * time.Second
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.IdleAfter / 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8192
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// IngestFrame is one sensor frame entering the service.
type IngestFrame struct {
	// Sensor identifies the session; an unknown sensor is registered
	// implicitly.
	Sensor string
	// At is the capture timestamp; zero means the service clock's now.
	At time.Time
	// CenterHz and SampleRate place the frame on the spectrum.
	CenterHz   float64
	SampleRate float64
	// IQ is the frame payload; len must equal the service FFT size.
	IQ []complex128
	// Done, when non-nil, is called exactly once after the frame has been
	// folded into the grid (or shed after acceptance) — the closed-loop
	// hook the load generator paces itself with. It runs on the
	// dispatcher goroutine and must be cheap.
	Done func()
	// ReleaseIQ hands IQ ownership to the service: after processing the
	// slice is returned to the dsp pool. Callers that recycle their own
	// buffers leave it false.
	ReleaseIQ bool
}

// frameTask is the queued form of an accepted frame. sess is the session
// the frame was admitted under, captured at ingest: the fold touches this
// pointer, not a by-ID lookup, so a sweep-evict + re-register between
// admission and fold cannot leak the old session's aggregates into the
// reincarnated one.
type frameTask struct {
	sensor     string
	sess       *Session
	at         time.Time
	enqueued   time.Time
	centerHz   float64
	sampleRate float64
	iq         []complex128
	bins       []float64
	done       func()
	releaseIQ  bool
}

var taskPool = sync.Pool{New: func() interface{} { return new(frameTask) }}

// Service multiplexes the sensor fleet through the shared engine: ingest
// validates and enqueues, one dispatcher goroutine forms batches and runs
// them (FFT and fold stages both fanned across the pipeline pool), a
// sweeper evicts idle sessions. The fold can fan out without changing
// results because every fold target is commutative under its own lock:
// grid slots accumulate integer counts behind a per-slot mutex, session
// aggregates are max/sum/count behind the session mutex, and the metrics
// are atomic — so any fold order produces the same surface.
type Service struct {
	cfg    Config
	engine *Engine
	table  *SessionTable
	grid   *Grid
	exec   *pipeline.Executor
	clk    clock.Clock
	m      *serviceMetrics

	queue     chan *frameTask
	done      chan struct{}
	wg        sync.WaitGroup
	baseCtx   context.Context // carries the tracer for batch spans
	chunkErrs []error         // dispatcher-owned per-chunk fold errors, reused per batch

	closeOnce sync.Once

	// foldHook, when set by tests, replaces the grid fold outcome so a
	// fold can be held open or failed without breaking the grid.
	foldHook func() error
}

// NewService builds and starts a streaming service.
func NewService(cfg Config) (*Service, error) {
	cfg.fill()
	eng, err := NewEngine(cfg.FFTSize, dsp.Hann)
	if err != nil {
		return nil, err
	}
	grid, err := NewGrid(cfg.Grid)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		engine:  eng,
		table:   NewSessionTable(cfg.MaxSessions, 16),
		grid:    grid,
		exec:    pipeline.New(pipeline.Config{Workers: cfg.Workers}),
		clk:     cfg.Clock,
		queue:   make(chan *frameTask, cfg.QueueCap),
		done:    make(chan struct{}),
		baseCtx: context.Background(),
	}
	s.chunkErrs = make([]error, s.exec.Workers())
	if cfg.Tracer != nil {
		s.baseCtx = obs.WithTracer(s.baseCtx, cfg.Tracer)
	}
	s.m = newServiceMetrics(cfg.Registry, s.table, func() float64 { return float64(len(s.queue)) })
	s.wg.Add(2)
	go s.dispatch()
	go s.sweep()
	return s, nil
}

// FFTSize returns the frame length the service accepts.
func (s *Service) FFTSize() int { return s.cfg.FFTSize }

// Grid returns the occupancy aggregation (for queries).
func (s *Service) Grid() *Grid { return s.grid }

// Sessions returns the session table (for stats queries).
func (s *Service) Sessions() *SessionTable { return s.table }

// RetryAfter returns the configured shed retry hint.
func (s *Service) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Degraded is always false: nothing can fail the aggregation path that
// Ingest has not already refused. It stays because the bench harness
// wires it as a readiness check.
func (s *Service) Degraded() bool { return false }

// QueueDepth returns the frames currently queued.
func (s *Service) QueueDepth() int { return len(s.queue) }

// Ingest validates and enqueues one frame. A nil return means the frame
// was accepted and its Done callback will fire exactly once; any error
// means the frame was shed before acceptance and Done will NOT fire.
func (s *Service) Ingest(f IngestFrame) error {
	if len(f.IQ) != s.cfg.FFTSize {
		s.m.framesShed.With(shedMalformed).Inc()
		return fmt.Errorf("stream: frame length %d, want %d", len(f.IQ), s.cfg.FFTSize)
	}
	if !finitePositive(f.SampleRate) || !finite(f.CenterHz) {
		// NaN passes every ordered comparison below, the band checks
		// included.
		s.m.framesShed.With(shedMalformed).Inc()
		return fmt.Errorf("stream: sample rate %v Hz, centre %v Hz", f.SampleRate, f.CenterHz)
	}
	gc := s.grid.Config()
	if f.CenterHz-f.SampleRate/2 >= gc.HighHz || f.CenterHz+f.SampleRate/2 <= gc.LowHz {
		s.m.framesShed.With(shedBand).Inc()
		return ErrOutOfBand
	}
	now := s.clk.Now()
	at := f.At
	if at.IsZero() {
		at = now
	}
	sess, err := s.table.Acquire(f.Sensor, now)
	if err != nil {
		if errors.Is(err, ErrSessionLimit) {
			s.m.framesShed.With(shedSessions).Inc()
		} else {
			s.m.framesShed.With(shedMalformed).Inc()
		}
		return err
	}
	t := taskPool.Get().(*frameTask)
	*t = frameTask{
		sensor: f.Sensor, sess: sess, at: at, enqueued: now,
		centerHz: f.CenterHz, sampleRate: f.SampleRate,
		iq: f.IQ, done: f.Done, releaseIQ: f.ReleaseIQ,
	}
	select {
	case s.queue <- t:
		s.m.framesIngested.Inc()
		return nil
	default:
		*t = frameTask{}
		taskPool.Put(t)
		s.m.framesShed.With(shedQueue).Inc()
		return ErrQueueFull
	}
}

// Register explicitly registers a sensor session (sensors may also
// register implicitly with their first frame).
func (s *Service) Register(sensor string) (*Session, error) {
	sess, err := s.table.Acquire(sensor, s.clk.Now())
	if err != nil && errors.Is(err, ErrSessionLimit) {
		s.m.framesShed.With(shedSessions).Inc()
	}
	return sess, err
}

// dispatch is the single batch-forming loop: block for one frame, take
// whatever else is already queued, run it. There is no timer: under
// backlog the queue itself fills the batch to MaxBatch, and on a quiet
// queue a frame is not held back to wait for company the engine does
// not need. One goroutine forms batches and finishes tasks (so Done
// ordering and buffer recycling stay serial); the FFT and fold stages
// inside runBatch fan out across the pipeline pool.
func (s *Service) dispatch() {
	defer s.wg.Done()
	batch := make([]*frameTask, 0, s.cfg.MaxBatch)
	jobs := make([]Job, 0, s.cfg.MaxBatch)
	for {
		select {
		case <-s.done:
			// Drain what is still queued, so accepted frames keep the
			// "Done fires exactly once" promise.
			for {
				if batch = s.fill(batch[:0]); len(batch) == 0 {
					return
				}
				s.runBatch(batch, jobs)
			}
		case t := <-s.queue:
			batch = s.fill(append(batch, t))
		}
		s.runBatch(batch, jobs)
		batch = batch[:0]
	}
}

// fill tops batch up to MaxBatch from the queue without waiting.
func (s *Service) fill(batch []*frameTask) []*frameTask {
	for len(batch) < s.cfg.MaxBatch {
		select {
		case t := <-s.queue:
			batch = append(batch, t)
		default:
			return batch
		}
	}
	return batch
}

// runBatch runs one formed batch: parallel batched FFT, then parallel
// aggregation fold over the same chunks.
func (s *Service) runBatch(batch []*frameTask, jobs []Job) {
	if len(batch) == 0 {
		return
	}
	s.m.batches.Inc()
	s.m.batchSize.Observe(float64(len(batch)))
	// Spans only when a tracer was wired in: span bookkeeping allocates,
	// and at small batch fill that would tax the allocs/frame ≈ 0
	// contract for deployments that never read the traces.
	ctx := s.baseCtx
	var batchSpan, fftSpan, foldSpan *obs.Span
	if s.cfg.Tracer != nil {
		ctx, batchSpan = obs.StartRootSpan(ctx, "stream.batch")
		batchSpan.SetAttr("frames", strconv.Itoa(len(batch)))
	}

	jobs = jobs[:0]
	for _, t := range batch {
		t.bins = dsp.GetFloat(s.cfg.FFTSize)
		jobs = append(jobs, Job{IQ: t.iq, SampleRate: t.sampleRate, Bins: t.bins})
	}

	// FFT stage: chunk the batch across the worker pool; each chunk is
	// one engine.ProcessPower call, so twiddles/windows are still amortized
	// per chunk and per-frame output stays bit-identical to serial. A
	// single-chunk batch runs inline: the pool's per-Run setup (feed
	// channel, worker goroutines) would cost more than it buys and would
	// break the steady-state allocs/frame ≈ 0 contract
	// when the fleet trickles frames in one at a time.
	workers := s.exec.Workers()
	chunk := (len(jobs) + workers - 1) / workers
	nchunks := (len(jobs) + chunk - 1) / chunk
	fctx := ctx
	if batchSpan != nil {
		fctx, fftSpan = obs.StartSpan(ctx, "stream.fft_batch")
	}
	start := s.clk.Now()
	var err error
	if nchunks == 1 {
		err = s.engine.ProcessPower(jobs)
	} else {
		err = s.exec.Run(fctx, nchunks, func(_ context.Context, i int) error {
			lo := i * chunk
			hi := lo + chunk
			if hi > len(jobs) {
				hi = len(jobs)
			}
			return s.engine.ProcessPower(jobs[lo:hi])
		})
	}
	s.m.fftSeconds.Observe(s.clk.Now().Sub(start).Seconds())
	fftSpan.SetError(err)
	fftSpan.End()

	// Fold stage: fanned across the same chunks. This is exact, not
	// approximate — see the Service doc comment: every fold target
	// accumulates commutatively under its own lock, so chunk order cannot
	// change the surface. Per-chunk errors land in a dispatcher-owned
	// slice and the lowest-index one wins, so the error the spans record
	// is independent of scheduling (same rule as pipeline.Run).
	if batchSpan != nil {
		_, foldSpan = obs.StartSpan(ctx, "stream.fold")
	}
	foldStart := s.clk.Now()
	if err == nil {
		if nchunks == 1 {
			err = s.foldChunk(batch)
		} else {
			errs := s.chunkErrs[:nchunks]
			_ = s.exec.Run(ctx, nchunks, func(_ context.Context, i int) error {
				lo := i * chunk
				hi := lo + chunk
				if hi > len(batch) {
					hi = len(batch)
				}
				errs[i] = s.foldChunk(batch[lo:hi])
				return nil
			})
			for i := range errs {
				if errs[i] != nil && err == nil {
					err = errs[i]
				}
				errs[i] = nil
			}
		}
	} else {
		// The engine refuses only frames Ingest already refuses.
		for range batch {
			s.m.framesShed.With(shedMalformed).Inc()
		}
	}
	now := s.clk.Now()
	s.m.foldSeconds.Observe(now.Sub(foldStart).Seconds())
	foldSpan.SetError(err)
	foldSpan.End()
	batchSpan.SetError(err)
	batchSpan.End()
	for _, t := range batch {
		s.m.frameLatency.Observe(now.Sub(t.enqueued).Seconds())
		s.finishTask(t)
	}
}

// foldChunk folds a chunk of processed frames and returns the first
// non-out-of-band failure (out-of-band frames are shed, not failures).
func (s *Service) foldChunk(tasks []*frameTask) error {
	var first error
	for _, t := range tasks {
		if ferr := s.foldTask(t); ferr != nil && first == nil && !errors.Is(ferr, ErrOutOfBand) {
			first = ferr
		}
	}
	return first
}

// foldTask folds one processed frame into its session and the grid.
func (s *Service) foldTask(t *frameTask) error {
	var frac float64
	var err error
	if s.foldHook != nil {
		err = s.foldHook()
	} else {
		var viaDB bool
		if frac, viaDB, err = s.grid.FoldPower(t.bins, t.centerHz, t.sampleRate, t.at); viaDB {
			s.m.foldDBFallback.Inc()
		}
	}
	if err != nil {
		if errors.Is(err, ErrOutOfBand) {
			s.m.framesShed.With(shedBand).Inc()
			return err
		}
		return err
	}
	// Fold into the session captured at admission. If the sweeper evicted
	// it while the frame was queued, the touch lands on the tombstone —
	// counted, but never visible through a re-registered session of the
	// same sensor ID.
	if t.sess.touch(t.at, frac) {
		s.m.tombstoneFolds.Inc()
	}
	s.m.framesDone.Inc()
	return nil
}

// finishTask fires Done, returns buffers to their pools and recycles the
// task.
func (s *Service) finishTask(t *frameTask) {
	if t.done != nil {
		t.done()
	}
	if t.releaseIQ && t.iq != nil {
		putIQ(t.iq)
	}
	if t.bins != nil {
		dsp.PutFloat(t.bins)
	}
	*t = frameTask{}
	taskPool.Put(t)
}

// sweep periodically evicts idle sessions.
func (s *Service) sweep() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.clk.After(s.cfg.SweepEvery):
			if n := s.table.EvictIdle(s.clk.Now().Add(-s.cfg.IdleAfter)); n > 0 {
				s.m.evictions.Add(float64(n))
			}
		}
	}
}

// Close stops the service, draining already-accepted frames first.
func (s *Service) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
}
