// Package spectrumd assembles the cloud collector that cmd/spectrumd
// serves: the trust collector, its crash-safe store, its member of the
// collector ring, the streaming spectrum service and the admin surface.
// It is the one assembly; the command parses flags into a Config, calls
// New and serves Handler, and the end-to-end tests build the same thing.
//
// The collector's ingest state is split across a fixed 8 lock stripes
// (ingestStripes). -profile-contention enables the runtime mutex/block
// profilers so /debug/pprof/mutex and /debug/pprof/block report where
// ingest actually waits.
//
// The daemon is a member of a collector ring (internal/replica). Without
// -ring it is a ring of one: it owns every node, closes every epoch and
// is ready at once. -replica-id + -ring make it one member of a
// multi-replica tier: a consistent-hash ring partitions ingest by node
// ID, misrouted submissions are proxied to their owner, the lexically
// smallest member merges and closes epochs ring-wide, and a (re)joining
// member catches up from a live peer before /readyz goes green. Agents
// need no changes — any member accepts the whole API. A ring with a peer
// needs a shared secret (-ring-secret, or SENSORCAL_RING_SECRET to keep
// it out of process listings): the /replica/* peer protocol can install
// absolute trust scores and drain pending evidence, so a peer request
// without the secret gets 403 — and with no secret set, every one does.
//
// -wal is the daemon's one persistence path, the crash-safe trust store
// (internal/store): every registration and every epoch's score batch is
// appended to a checksummed segment WAL and fsynced before it is
// acknowledged, and sealed segments fold into snapshots (each
// snapshot-<seq>.json embeds the ledger as plain JSON). Without -wal the
// ledger lives in memory only.
package spectrumd

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/replica"
	"sensorcal/internal/store"
	"sensorcal/internal/store/wal"
	"sensorcal/internal/stream"
	"sensorcal/internal/trust"
)

// ingestStripes is the collector's lock-stripe count: the value every
// bench workload measures. Results are byte-identical at any count
// (TestShardedCollectorEquivalence), so it is not an operator's choice.
const ingestStripes = 8

// Config holds one field per spectrumd flag but -addr (the caller
// serves Handler), then the seams tests inject; their zero values are
// what spectrumd runs.
type Config struct {
	Epoch                                  time.Duration // -epoch
	WAL                                    string        // -wal
	WALCompactSegments                     int           // -wal-compact-segments
	ReplicaID                              string        // -replica-id
	Ring                                   string        // -ring
	RingSecret                             string        // -ring-secret
	RingVNodes                             int           // -ring-vnodes
	CatchupWait                            time.Duration // -catchup-wait
	ProfileContention                      bool          // -profile-contention
	LogLevel                               string        // -log-level
	TraceCapacity                          int           // -trace-capacity
	TraceSample                            float64       // -trace-sample
	TraceExport                            string        // -trace-export
	Stream                                 bool          // -stream
	StreamFFT, StreamQueue, StreamSessions int           // -stream-fft, -stream-queue, -stream-sessions
	StreamIdle                             time.Duration // -stream-idle
	StreamBand                             string        // -stream-band

	Clock    clock.Clock   // nil: the wall clock
	Registry *obs.Registry // nil: obs.Default()
	Tracer   *obs.Tracer   // nil: obs.DefaultTracer(), set up by the Trace* fields
	FS       wal.FS        // nil: the operating system's
}

// Daemon is one running collector. Its epoch closer runs against the
// configured clock, so tests drive a clock.Simulated through hours of
// collector time in microseconds the same way the agent tests do.
type Daemon struct {
	cfg         Config
	col         *trust.Collector
	clk         clock.Clock
	log         *obs.Logger
	health      *obs.Health
	closer      *trust.Closer   // single-flight passes; Shutdown stops it before its own flush
	tlog        *store.TrustLog // -wal; nil keeps the ledger in memory only
	stream      *stream.Service // -stream; nil leaves a pure trust collector
	replica     *replica.Node   // without -ring, a ring of the daemon alone
	stopCatchUp func()          // ends boot catch-up and waits for it
	traceDone   func()          // closes the span exporter
}

// New assembles a daemon and starts its epoch closer and boot catch-up.
// Serve Handler, then call Shutdown.
func New(cfg Config) (_ *Daemon, err error) {
	lv, err := obs.ParseLevel(cfg.LogLevel)
	if err != nil {
		return nil, err
	}
	var lo, hi float64
	if cfg.Stream {
		if lo, hi, err = parseBand(cfg.StreamBand); err != nil {
			return nil, fmt.Errorf("-stream-band: %w", err)
		}
	}
	d := &Daemon{cfg: cfg, clk: cfg.Clock, log: obs.NewLogger("spectrumd"), health: obs.NewHealth(), traceDone: func() {}}
	d.log.SetLevel(lv)
	if d.clk == nil {
		d.clk = clock.System{}
	}
	tr := cfg.Tracer
	if tr == nil {
		if d.traceDone, err = obs.ConfigureDefaultTracer(cfg.TraceCapacity, cfg.TraceSample, cfg.TraceExport); err != nil {
			return nil, err
		}
		tr = obs.DefaultTracer()
	}
	defer func() {
		if err != nil {
			d.release()
		}
	}()
	if cfg.ProfileContention {
		// Sample every contended mutex event and blocking events ≥ 10 µs:
		// cheap enough for a collector, detailed enough to see stripes.
		obs.EnableContentionProfiling(1, 10_000)
		d.log.Infof("mutex/block contention profiling enabled")
	}

	d.col = trust.NewShardedCollector(ingestStripes).Instrument(cfg.Registry)
	d.col.EpochWindow, d.col.Tracer, d.col.Obs = cfg.Epoch, tr, cfg.Registry
	if cfg.WAL != "" {
		// Recover the ledger from the newest snapshot plus the segment
		// tail, then wire the collector's mutations through the store.
		if d.tlog, err = store.OpenTrustLog(cfg.WAL, wal.Options{FS: cfg.FS, Metrics: wal.NewMetrics(cfg.Registry)}); err != nil {
			return nil, fmt.Errorf("opening wal %s: %w", cfg.WAL, err)
		}
		stats, err := d.tlog.Recover(d.col.Ledger, d.clk.Now())
		if err != nil {
			return nil, fmt.Errorf("opening wal %s: %w", cfg.WAL, err)
		}
		if stats.TornBytes > 0 {
			d.log.Warnf("wal recovery truncated %d torn bytes from the tail", stats.TornBytes)
		}
		d.log.Infof("wal recovery: %d nodes from snapshot, %d records replayed", stats.SnapshotNodes, stats.Records)
		d.col.Store = d.tlog
		// Degraded store = appends failing = mutations shed with 503: not
		// ready for traffic until the disk heals.
		d.health.AddCheck("store", func() bool { return !d.col.StoreDegraded() })
	}
	d.health.SetReady("ledger", true)

	// Join the ring -ring (id=url,id=url) as -replica-id; an empty spec is
	// a ring of the daemon alone. It comes after the WAL: a joining
	// peer's catch-up streams it.
	members := []replica.Member{{ID: cfg.ReplicaID}}
	if cfg.Ring != "" {
		if members, err = replica.ParseMembers(cfg.Ring); err != nil {
			return nil, fmt.Errorf("-ring: %w", err)
		}
	}
	if d.replica, err = replica.New(replica.Config{
		Self: cfg.ReplicaID, Members: members, VNodes: cfg.RingVNodes, Secret: cfg.RingSecret,
		Collector: d.col, Log: d.tlog, Registry: cfg.Registry, Tracer: tr, Health: d.health, Now: d.clk.Now,
	}); err != nil {
		return nil, err
	}
	ring := d.replica.Ring()
	d.log.Infof("replica %s in a %d-member ring coordinated by %s, %d virtual nodes each; %d ingest stripes",
		cfg.ReplicaID, ring.Len(), ring.Coordinator().ID, ring.VirtualNodes(), ingestStripes)

	if cfg.Stream {
		if d.stream, err = stream.NewService(stream.Config{
			FFTSize:     cfg.StreamFFT,
			QueueCap:    cfg.StreamQueue,
			MaxSessions: cfg.StreamSessions,
			IdleAfter:   cfg.StreamIdle,
			Grid:        stream.GridConfig{LowHz: lo, HighHz: hi},
			Registry:    cfg.Registry,
			Tracer:      tr,
		}); err != nil {
			return nil, fmt.Errorf("stream service: %w", err)
		}
		d.log.Infof("streaming spectrum service on /api/stream (fft %d, queue %d, band %s)",
			cfg.StreamFFT, cfg.StreamQueue, cfg.StreamBand)
	}

	// Close matured epochs once per window: the collector's background
	// closer on the daemon's clock, its pass replaced by ClosePass (the
	// ring's close — coordinator merge, follower no-op — plus compaction).
	d.closer = d.col.StartCloser(trust.CloserConfig{
		Interval: cfg.Epoch,
		Lag:      cfg.Epoch,
		Now:      d.clk.Now,
		After:    d.clk.After,
		Run: func(cutoff time.Time) []trust.Anomaly {
			d.ClosePass(cutoff)
			return nil // ClosePass logs its own anomalies
		},
	})
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	d.stopCatchUp = func() { stop(); <-done }
	go func() { defer close(done); d.catchUp(ctx, cfg.CatchupWait) }()
	return d, nil
}

// Logger is the daemon's logger, at the configured level.
func (d *Daemon) Logger() *obs.Logger { return d.log }

// Collector is the daemon's trust collector.
func (d *Daemon) Collector() *trust.Collector { return d.col }

// parseBand parses "lo:hi" in Hz (scientific notation welcome).
func parseBand(s string) (lo, hi float64, err error) {
	l, h, ok := strings.Cut(s, ":")
	lo, err1 := strconv.ParseFloat(l, 64)
	hi, err2 := strconv.ParseFloat(h, 64)
	if !ok || err1 != nil || err2 != nil || !(hi > lo) {
		return 0, 0, fmt.Errorf("band %q must be lo:hi in Hz with hi > lo", s)
	}
	return lo, hi, nil
}

// ClosePass finalizes every epoch before cutoff — the score batch is
// appended durably inside the close itself — then lets the WAL fold
// sealed segments into a snapshot.
func (d *Daemon) ClosePass(cutoff time.Time) {
	// Only the coordinator closes: it drains every member, merges, closes
	// once and installs the result ring-wide. A follower's pending epochs
	// reach it over /replica/drain (at shutdown, /replica/handoff);
	// closing them here too would double-count.
	if d.replica.IsCoordinator() {
		for _, a := range d.replica.MergeClose(cutoff) {
			d.log.Warnf("anomaly: %v", a)
		}
	}
	if d.tlog == nil {
		return
	}
	if ran, err := d.tlog.MaybeCompact(d.col.Ledger, d.clk.Now(), d.cfg.WALCompactSegments); err != nil {
		d.log.Errorf("wal compaction: %v", err)
	} else if ran {
		d.log.Debugf("wal compacted into a fresh snapshot")
	}
}

// Shutdown stops the background closer, then flushes every remaining
// epoch — including the still-maturing one. Losing the trailing window's
// evidence on restart would let a fabricator launder its history by
// timing a crash. Drain the HTTP server first.
func (d *Daemon) Shutdown() {
	d.stopCatchUp()
	if d.stream != nil {
		// Fold every already-accepted frame before exiting: the grid and
		// session aggregates stay consistent with what sensors were acked.
		d.stream.Close()
	}
	// Stop waits for an in-flight pass. The flush below must not overlap
	// one: two passes appending to one signal's history and folding its
	// correlation sums would do so in nondeterministic order
	// (CloseDrained is single-flight).
	d.closer.Stop()
	// A follower's pending epochs live only in memory and only the
	// coordinator may close them: hand them over — including the
	// still-maturing window — so a graceful restart loses no acked
	// evidence. (On the coordinator this does nothing; the close below
	// takes them.) If the coordinator is down too, that evidence is lost:
	// agents re-submit only readings they never got a 202 for (ROADMAP
	// item 13). Log exactly what is at stake.
	if err := d.replica.FlushPending(d.clk.Now().Add(d.cfg.Epoch)); err != nil {
		d.log.Warnf("shutdown handoff failed, trailing-window evidence lost with this process: %v", err)
	}
	d.ClosePass(d.clk.Now().Add(d.cfg.Epoch))
	d.release()
	d.log.Infof("pending epochs closed, exiting")
}

// release closes the WAL and the span exporter.
func (d *Daemon) release() {
	if d.tlog != nil {
		if err := d.tlog.Close(); err != nil {
			d.log.Warnf("closing wal: %v", err)
		}
	}
	d.traceDone()
}

// Handler mounts the collector API — wrapped in the load-shedding and
// per-request-timeout middleware — onto the obs admin surface. The debug
// endpoints stay outside the timeout: a CPU profile legitimately takes
// longer than any API request should. The /replica/* peer protocol
// mounts outside the hardening middleware too — drains and catch-up
// streams are ring-internal and must not compete with agents for the
// in-flight budget — but every /replica/* route demands the shared ring
// credential, so on the public listener it is 403 to anything but a
// ring member.
func (d *Daemon) Handler() http.Handler {
	mux := obs.AdminMux(d.cfg.Registry, d.col.Tracer, d.health)
	rh := d.replica.Handler()
	mux.Handle("/api/", trust.Harden(rh, trust.HardenConfig{}))
	mux.Handle("/replica/", rh)
	if d.stream != nil {
		// Longer patterns win in ServeMux, so the streaming surface
		// carves its routes out of /api/ without touching the trust API.
		// It carries its own RED middleware and backpressure (bounded
		// queue + breaker), so it mounts outside the trust hardening.
		sh := d.stream.Handler()
		mux.Handle("/api/stream/", sh)
		mux.Handle("/api/occupancy", sh)
	}
	return mux
}

// catchUp copies a live peer's state before the member reports ready.
// Outbound only, so it runs while this member already serves /replica/*
// to others — a whole ring booting at once converges (everyone copies an
// empty peer), a ring with no live peer within wait is a cold start, and
// a ring of one has no peer to wait for.
func (d *Daemon) catchUp(ctx context.Context, wait time.Duration) {
	deadline := time.Now().Add(wait)
	for {
		reached, err := d.replica.CatchUp()
		if reached && err == nil {
			d.log.Infof("replica caught up; ready")
			return
		}
		if err != nil {
			d.log.Warnf("catch-up: %v", err)
		}
		if !reached && time.Now().After(deadline) {
			d.log.Infof("no live peer within %s; assuming cold start", wait)
			d.replica.MarkReady()
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(2 * time.Second):
		}
	}
}
