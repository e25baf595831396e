package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/replica"
	"sensorcal/internal/store"
	"sensorcal/internal/stream"
	"sensorcal/internal/trust"
)

// The system under test, assembled the way cmd/spectrumd/main.go ships
// it. Each member is what one spectrumd process holds: an 8-stripe
// instrumented collector, the WAL-backed trust store, the streaming
// service at its defaults (idle on the trust workloads, as it is in a
// daemon nobody streams to), the admin mux with the API behind
// trust.Harden, and the background closer. spectrumd keeps its registry
// and tracer in process globals; several members share this process, so
// each gets its own pair, configured as ConfigureDefaultTracer would.

const (
	shippedStripes     = 8 // spectrumd -shards
	shippedTraceSample = 1 // spectrumd -trace-sample
	ringSecret         = "bench-ring-secret"
	closePhase         = 50 * time.Millisecond
)

// shippedStreamConfig is spectrumd's -stream-* defaults; MaxBatch and
// Linger are the service's own (64, 2 ms).
func shippedStreamConfig(reg *obs.Registry, tr *obs.Tracer) stream.Config {
	return stream.Config{
		FFTSize:     256,
		QueueCap:    8192,
		MaxSessions: 16384,
		IdleAfter:   time.Minute,
		Grid:        stream.GridConfig{LowHz: streamBandLo, HighHz: streamBandHi},
		Registry:    reg,
		Tracer:      tr,
	}
}

// outRoot is where everything a run writes goes, WAL directories and
// trace files: inside the checkout the benchmark runs from, next to the
// build output.
var outRoot = ".bench_build"

func scratchDir(pattern string) (string, error) {
	tmp := filepath.Join(outRoot, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, pattern)
}

// storeTap decorates the collector's trust.Store. It is always in place:
// result lag is defined by the moment AppendScores returns, and a close
// pass calls it once.
type storeTap struct {
	next trust.Store
	rec  *recorder

	mu      sync.Mutex
	appends []sample // at = wall-clock ns of the return, dur = the call
}

func (s *storeTap) AppendRegister(n trust.Node) error { return s.next.AppendRegister(n) }

func (s *storeTap) AppendScores(at time.Time, updates []trust.ScoreUpdate) (err error) {
	start := time.Now()
	s.rec.closeSpan(spAppendScores, func() { err = s.next.AppendScores(at, updates) })
	end := time.Now()
	s.mu.Lock()
	s.appends = append(s.appends, sample{at: end.UnixNano(), dur: int64(end.Sub(start))})
	s.mu.Unlock()
	return err
}

// lastAppendReturn is when the newest score batch became durable.
func (s *storeTap) lastAppendReturn() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.appends) == 0 {
		return time.Time{}
	}
	return time.Unix(0, s.appends[len(s.appends)-1].at)
}

// fsTap decorates the WAL's filesystem: it counts and times the calls
// that make data durable and the bytes written.
type fsTap struct {
	store.FS
	rec *recorder

	mu    sync.Mutex
	syncs []float64 // ns, Sync and SyncDir
	bytes int64
}

type fileTap struct {
	store.File
	fs *fsTap
}

func (f *fsTap) wrap(file store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return &fileTap{File: file, fs: f}, nil
}

func (f *fsTap) Create(name string) (store.File, error)     { return f.wrap(f.FS.Create(name)) }
func (f *fsTap) OpenAppend(name string) (store.File, error) { return f.wrap(f.FS.OpenAppend(name)) }

func (f *fsTap) timedSync(fn func() error) (err error) {
	start := time.Now()
	f.rec.closeSpan(spFsync, func() { err = fn() })
	d := time.Since(start)
	f.mu.Lock()
	f.syncs = append(f.syncs, float64(d))
	f.mu.Unlock()
	return err
}

func (f *fsTap) SyncDir(dir string) error {
	return f.timedSync(func() error { return f.FS.SyncDir(dir) })
}

func (t *fileTap) Sync() error { return t.fs.timedSync(t.File.Sync) }

func (t *fileTap) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.mu.Lock()
	t.fs.bytes += int64(n)
	t.fs.mu.Unlock()
	return n, err
}

// fsCounts is a snapshot of an fsTap's counters.
type fsCounts struct {
	syncs int
	bytes int64
}

func (f *fsTap) counts() fsCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fsCounts{syncs: len(f.syncs), bytes: f.bytes}
}

func (f *fsTap) syncsSince(n int) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64(nil), f.syncs[n:]...)
}

// closePass is one observed pass of the closer.
type closePass struct {
	start    time.Time
	dur      time.Duration
	epochs   int
	readings int
	traced   bool
	mallocs  uint64
}

// member is one spectrumd's worth of state.
type member struct {
	id     string
	dir    string
	epoch  time.Duration
	reg    *obs.Registry
	tracer *obs.Tracer
	health *obs.Health
	col    *trust.Collector
	tlog   *store.TrustLog
	st     *storeTap
	fs     *fsTap
	svc    *stream.Service
	node   *replica.Node // nil outside a ring

	ln     net.Listener
	srv    *http.Server
	url    string
	closer *trust.Closer
	peer   *transportTap // the ring member's outbound transport, traced runs only

	rec *recorder
	// win is the timed window once it has opened; it says whether a pass
	// starting now is traced (alternate slices).
	win atomic.Pointer[window]

	passMu    sync.Mutex
	passes    []closePass
	lagNs     []sample // result lag per closed window
	lastBound time.Time
	anomalies int64
}

// newMember opens the WAL in a fresh directory and builds the collector,
// as spectrumd's main and openTrustLog do.
func newMember(id string, epoch time.Duration, rec *recorder) (*member, error) {
	dir, err := scratchDir("wal-" + id + "-")
	if err != nil {
		return nil, err
	}
	m := &member{id: id, dir: dir, epoch: epoch, rec: rec}
	m.reg = obs.NewRegistry()
	m.tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	m.tracer.SetSampleRatio(shippedTraceSample)
	m.tracer.Instrument(m.reg)

	c := trust.NewShardedCollector(shippedStripes).Instrument(m.reg)
	c.EpochWindow = epoch
	c.Obs = m.reg
	c.Tracer = m.tracer
	m.col = c
	m.health = obs.NewHealth()
	m.health.SetReady("ledger", false)

	m.fs = &fsTap{FS: store.OS{}, rec: rec}
	tlog, err := store.OpenTrustLog(dir, store.Options{Metrics: store.NewMetrics(m.reg), FS: m.fs})
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	if _, err := tlog.Recover(c.Ledger, time.Now()); err != nil {
		tlog.Close()
		return nil, fmt.Errorf("recovering wal: %w", err)
	}
	m.tlog = tlog
	m.st = &storeTap{next: tlog, rec: rec}
	c.Store = m.st
	m.health.AddCheck("store", func() bool { return !c.StoreDegraded() })
	m.health.SetReady("ledger", true)

	sv, err := stream.NewService(shippedStreamConfig(m.reg, m.tracer))
	if err != nil {
		tlog.Close()
		return nil, err
	}
	m.svc = sv
	m.health.AddCheck("stream", func() bool { return !sv.Degraded() })
	return m, nil
}

// enroll registers the fleet in the ledger and folds it into one durable
// snapshot: the state of a collector whose nodes enrolled long ago.
func (m *member) enroll(f *fleet, registered time.Time) error {
	for i, id := range f.nodes {
		n := trust.Node{
			ID: id, Operator: fmt.Sprintf("op-%d", f.hoodOf[i]),
			Lat: 40 + float64(f.hoodOf[i])*0.01, Lon: -74 + float64(i%f.perHood)*0.001,
			Hardware: "rtl-sdr", Registered: registered,
		}
		if err := m.col.Ledger.Register(n); err != nil {
			return err
		}
	}
	return m.tlog.Compact(m.col.Ledger, registered)
}

// handler mounts the API as daemon.handler does. In a traced run, and
// only then, span-recording handlers sit outside and inside trust.Harden.
func (m *member) handler() http.Handler {
	mux := obs.AdminMux(m.reg, m.tracer, m.health)
	harden := trust.HardenConfig{Registry: m.reg}
	if m.node != nil {
		rh := m.node.Handler()
		mux.Handle("/api/", m.tapHandler(spHarden, trust.Harden(m.tapHandler(spHandler, rh), harden)))
		mux.Handle("/replica/", rh)
	} else {
		api := m.col.Handler(time.Now)
		mux.Handle("/api/", m.tapHandler(spHarden, trust.Harden(m.tapHandler(spHandler, api), harden)))
	}
	sh := m.svc.Handler()
	mux.Handle("/api/stream/", sh)
	mux.Handle("/api/occupancy", sh)
	return mux
}

// tapHandler records a span around h for requests that carry a span
// header, and points the header at itself for the layers below. The
// inner handler of a ring member also leaves its span where the peer
// transport can find it, and is named by whether a peer forwarded the
// request.
func (m *member) tapHandler(name spanName, h http.Handler) http.Handler {
	rec := m.rec
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		n := name
		self := spanRef{req: parent.req, id: rec.newID()}
		if name == spHandler && m.node != nil {
			if r.Header.Get(replica.ForwardHeader) != "" {
				n = spOwnerHandler
			} else {
				g := goid()
				rec.byGoroutine.Store(g, self)
				defer rec.byGoroutine.Delete(g)
			}
		}
		r.Header.Set(spanHeader, formatSpanHeader(self))
		start := rec.now()
		h.ServeHTTP(w, r)
		rec.add(span{ID: self.id, Parent: parent.id, Name: n, Req: self.req, Start: start, End: rec.now()})
	})
}

// listen binds the member's loopback port; serve starts answering on it.
// A ring needs every URL before any member can be built.
func (m *member) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	m.ln = ln
	m.url = "http://" + ln.Addr().String()
	return nil
}

func (m *member) serve() {
	m.srv = &http.Server{Handler: m.handler()}
	go m.srv.Serve(m.ln) //nolint:errcheck // returns ErrServerClosed at shutdown
}

// phaseLockedAfter is the closer's timer: whatever delay it is asked
// for, it fires at the next window boundary plus closePhase. A pass then
// always starts the same 50 ms after the window it closes has ended, and
// result lag measures the pass rather than where in the window the timer
// happened to start.
func phaseLockedAfter(epoch time.Duration, now func() time.Time, after func(time.Duration) <-chan time.Time) func(time.Duration) <-chan time.Time {
	return func(time.Duration) <-chan time.Time {
		t := now()
		target := t.Truncate(epoch).Add(closePhase)
		if !target.After(t) {
			target = target.Add(epoch)
		}
		return after(target.Sub(t))
	}
}

// startCloser runs the background closer with spectrumd's cadence
// (Interval = Lag = epoch). The pass is daemon.closeEpochs: merge-close
// on the ring coordinator, nothing on a follower, CloseEpochs on a single
// collector, then the compaction check.
func (m *member) startCloser() {
	m.lastBound = time.Now().Truncate(m.epoch)
	m.closer = m.col.StartCloser(trust.CloserConfig{
		Interval: m.epoch,
		Lag:      m.epoch,
		Now:      time.Now,
		After:    phaseLockedAfter(m.epoch, time.Now, time.After),
		Run: func(cutoff time.Time) []trust.Anomaly {
			m.closePass(cutoff, cutoff.Add(m.epoch).Truncate(m.epoch))
			return nil
		},
	})
}

// closePass runs one pass and records it. bound is the end of the newest
// window the pass closes; every window boundary since the previous pass
// up to bound yields one result-lag sample, taken when the score batch
// was durable.
func (m *member) closePass(cutoff, bound time.Time) {
	traced := m.win.Load().traced(time.Now())
	follower := m.node != nil && !m.node.IsCoordinator()
	var allocs0 uint64
	if traced {
		allocs0 = heapAllocObjects()
	}
	start := time.Now()
	var anomalies []trust.Anomaly
	epochs, readings := 0, 0
	var rootRef spanRef
	if traced && !follower {
		rootRef, _, _ = m.rec.pushClose(true)
	}
	switch {
	case follower:
	case m.node != nil:
		if traced {
			m.rec.closeSpan(spMergeClose, func() { anomalies = m.node.MergeClose(cutoff) })
		} else {
			anomalies = m.node.MergeClose(cutoff)
		}
	case traced:
		var drained []trust.Epoch
		m.rec.closeSpan(spDrainPending, func() { drained = m.col.DrainPending(cutoff) })
		m.rec.closeSpan(spCloseDrained, func() { anomalies, _ = m.col.CloseDrained(cutoff, drained) })
		epochs = len(drained)
		for i := range drained {
			readings += len(drained[i].Readings)
		}
	default:
		anomalies = m.col.CloseEpochs(cutoff)
	}
	end := time.Now()
	if traced && !follower {
		m.rec.add(span{ID: rootRef.id, Name: spClosePass, Req: rootRef.req, Start: m.rec.at(start), End: m.rec.at(end)})
		m.rec.popClose()
	}
	if _, err := m.tlog.MaybeCompact(m.col.Ledger, end, store.DefaultCompactAfterSegments); err != nil {
		fmt.Fprintf(os.Stderr, "bench: wal compaction: %v\n", err)
	}
	if follower {
		return
	}
	p := closePass{start: start, dur: end.Sub(start), epochs: epochs, readings: readings, traced: traced}
	if traced {
		p.mallocs = heapAllocObjects() - allocs0
	}
	durable := m.st.lastAppendReturn()
	m.passMu.Lock()
	m.passes = append(m.passes, p)
	m.anomalies += int64(len(anomalies))
	// Result lag is sampled only under the background closer (lastBound
	// set); backlog_close times its own passes. A pass that appended
	// nothing had nothing to make durable: it yields no sample, and the
	// windows it covered are not charged to the next.
	if !m.lastBound.IsZero() {
		if durable.After(start) {
			for b := m.lastBound.Add(m.epoch); !b.After(bound); b = b.Add(m.epoch) {
				m.lagNs = append(m.lagNs, sample{at: durable.UnixNano(), dur: int64(durable.Sub(b))})
			}
		}
		m.lastBound = bound
	}
	m.passMu.Unlock()
}

// stopCloser, stop and close tear a member down in the order the
// post-run checks need: no more passes, then no more requests, then the
// store.
func (m *member) stopCloser() {
	if m.closer != nil {
		m.closer.Stop()
		m.closer = nil
	}
}

func (m *member) stop() {
	m.stopCloser()
	if m.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		m.srv.Shutdown(ctx) //nolint:errcheck // best effort at teardown
		cancel()
		m.srv = nil
	} else if m.ln != nil {
		m.ln.Close()
	}
	m.ln = nil
}

func (m *member) close() {
	m.stop()
	if m.svc != nil {
		m.svc.Close()
		m.svc = nil
	}
	if m.tlog != nil {
		m.tlog.Close()
		m.tlog = nil
	}
	os.RemoveAll(m.dir)
}

// cluster is the system one trust workload drives: a single collector or
// a three-member ring.
type cluster struct {
	members []*member
	coord   *member
}

// newCluster builds n members (1 or 3), enrolls the fleet on each, and,
// with serve set, starts their servers and closers.
func newCluster(n int, f *fleet, epoch time.Duration, rec *recorder, serve bool) (*cluster, error) {
	c := &cluster{}
	fail := func(err error) (*cluster, error) {
		c.close()
		return nil, err
	}
	registered := time.Unix(1_700_000_000, 0).UTC()
	for i := 0; i < n; i++ {
		m, err := newMember(fmt.Sprintf("r%d", i+1), epoch, rec)
		if err != nil {
			return fail(err)
		}
		c.members = append(c.members, m)
		if err := m.enroll(f, registered); err != nil {
			return fail(err)
		}
		if serve || n > 1 {
			if err := m.listen(); err != nil {
				return fail(err)
			}
		}
	}
	c.coord = c.members[0]
	if n > 1 {
		ring := make([]replica.Member, n)
		for i, m := range c.members {
			ring[i] = replica.Member{ID: m.id, URL: m.url}
		}
		for _, m := range c.members {
			cfg := replica.Config{
				Self: m.id, Members: ring, Collector: m.col, Secret: ringSecret,
				Log: m.tlog, Registry: m.reg, Tracer: m.tracer, Health: m.health, Now: time.Now,
			}
			if rec != nil {
				m.peer = &transportTap{rec: rec, next: http.DefaultTransport}
				cfg.Client = &http.Client{Timeout: 10 * time.Second, Transport: m.peer}
			}
			node, err := replica.New(cfg)
			if err != nil {
				return fail(err)
			}
			m.node = node
			if node.IsCoordinator() {
				c.coord = m
			}
		}
	}
	if serve || n > 1 {
		for _, m := range c.members {
			m.serve()
		}
	}
	if serve {
		for _, m := range c.members {
			m.startCloser()
		}
	}
	return c, nil
}

func (c *cluster) stopClosers() {
	for _, m := range c.members {
		m.stopCloser()
	}
}

func (c *cluster) stop() {
	for _, m := range c.members {
		m.stop()
	}
}

func (c *cluster) close() {
	for _, m := range c.members {
		m.close()
	}
}

// spanCtxKey carries a request's parent span from the generator to its
// own transport.
type spanCtxKey struct{}

// transportTap is the RoundTripper decorator: on the generator's client
// it times http.roundtrip, on a ring member's peer client the forward,
// drain and install round trips. A round trip ends when the response
// body has been read, not when its headers arrive. It also counts what a
// member forwarded.
type transportTap struct {
	rec  *recorder
	next http.RoundTripper

	forwards     atomic.Int64
	forwardBytes atomic.Int64
}

type tapBody struct {
	io.ReadCloser
	done func()
	once sync.Once
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *tapBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

func (t *transportTap) RoundTrip(req *http.Request) (*http.Response, error) {
	var (
		name     spanName
		parent   spanRef
		ok       bool
		onClose  bool
		fromPeer = req.Header.Get(replica.RingAuthHeader) != ""
	)
	switch {
	case !fromPeer:
		name = spRoundtrip
		parent, ok = req.Context().Value(spanCtxKey{}).(spanRef)
	case req.URL.Path == "/api/readings":
		name = spForward
		t.forwards.Add(1)
		t.forwardBytes.Add(req.ContentLength)
		if v, found := t.rec.byGoroutine.Load(goid()); found {
			parent, ok = v.(spanRef), true
		}
	case req.URL.Path == "/replica/drain":
		name, onClose = spDrainRoundtrip, true
	case req.URL.Path == "/replica/install":
		name, onClose = spInstallRoundtrip, true
	}
	var self spanRef
	if onClose {
		self, parent, ok = t.rec.pushClose(false)
	} else if ok {
		self = spanRef{req: parent.req, id: t.rec.newID()}
	}
	if !ok {
		return t.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, formatSpanHeader(self))
	start := t.rec.now()
	finish := func() {
		t.rec.add(span{ID: self.id, Parent: parent.id, Name: name, Req: self.req, Start: start, End: t.rec.now()})
		if onClose {
			t.rec.popClose()
		}
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &tapBody{ReadCloser: resp.Body, done: finish}
	return resp, nil
}
