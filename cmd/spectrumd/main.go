// Command spectrumd is the cloud collector of the crowd-sourced spectrum
// network: nodes register, stream readings of shared reference signals,
// and the daemon maintains consensus-based trust scores (upper-bound and
// temporal-correlation fabrication checks).
//
// Usage:
//
//	spectrumd [-addr :8025] [-epoch 1m]
//	          [-wal waldir] [-wal-compact-segments 4]
//	          [-replica-id local] [-ring r1=http://a:8025,r2=http://b:8025]
//	          [-ring-secret s | $SENSORCAL_RING_SECRET]
//	          [-ring-vnodes 128] [-catchup-wait 30s]
//	          [-profile-contention] [-log-level info]
//	          [-trace-capacity 4096] [-trace-sample 1] [-trace-export spans.jsonl]
//	          [-stream] [-stream-fft 256] [-stream-queue 8192]
//	          [-stream-sessions 16384] [-stream-idle 1m] [-stream-band 470e6:698e6]
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
//
// Endpoints:
//
//	POST /api/register — {"id","operator","lat","lon","claimed_outdoor","hardware"}
//	POST /api/readings — {"node","signal_id","power_dbm","at"}
//	GET  /api/trust?node=ID
//	GET  /api/ring      — ring topology and readiness
//	POST /api/stream/register — enroll a streaming sensor session
//	POST /api/stream/frames   — batched base64 IQ frames through the shared engine
//	GET  /api/stream/stats    — fleet/session counters
//	GET  /api/occupancy?band=lo:hi — time×frequency occupancy buckets
//	GET  /healthz       — liveness (always 200 while the process serves)
//	GET  /readyz        — readiness (503 until the ledger is restored, or
//	                      while the trust store is degraded)
//	GET  /metrics       — Prometheus text exposition (trust_* series)
//	GET  /debug/traces  — span ring buffer as JSON
//	GET  /debug/pprof/* — runtime profiles
//
// SIGINT/SIGTERM shut the daemon down gracefully: the HTTP server drains,
// the background closer stops, and every pending epoch is closed through
// the consensus checks — its scores appended to the WAL — so no trust
// evidence is lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
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

// daemon is the testable core of spectrumd: the epoch closer runs against
// an injectable clock, so tests drive a clock.Simulated through hours of
// collector time in microseconds the same way the agent tests do.
type daemon struct {
	col   *trust.Collector
	clk   clock.Clock
	epoch time.Duration
	log   *obs.Logger
	// closer is the background epoch closer (startCloser). Close passes
	// are single-flight: shutdown stops it, waiting out an in-flight pass,
	// before it flushes the trailing windows itself.
	closer *trust.Closer
	// tlog is the crash-safe trust store (-wal); nil keeps the ledger in
	// memory only. compactSegs is the sealed-segment count that triggers
	// compaction after an epoch close.
	tlog        *store.TrustLog
	compactSegs int
	// health gates /readyz; nil when the admin surface is not mounted.
	health *obs.Health
	// stream is the fleet-scale continuous-monitoring service (-stream);
	// nil leaves the daemon a pure trust collector.
	stream *stream.Service
	// replica is the daemon's member of the collector ring; without -ring
	// the ring is the daemon alone.
	replica *replica.Node
}

// parseBand parses "lo:hi" in Hz (scientific notation welcome).
func parseBand(s string) (lo, hi float64, err error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf("band %q must be lo:hi in Hz", s)
	}
	lo, err1 := strconv.ParseFloat(s[:i], 64)
	hi, err2 := strconv.ParseFloat(s[i+1:], 64)
	if err1 != nil || err2 != nil || hi <= lo {
		return 0, 0, fmt.Errorf("band %q must be lo:hi in Hz with hi > lo", s)
	}
	return lo, hi, nil
}

// closeEpochs finalizes every epoch before cutoff — the score batch is
// appended durably inside the close itself — then lets the WAL fold
// sealed segments into a snapshot.
func (d *daemon) closeEpochs(cutoff time.Time) {
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
	if ran, err := d.tlog.MaybeCompact(d.col.Ledger, d.clk.Now(), d.compactSegs); err != nil {
		d.log.Errorf("wal compaction: %v", err)
	} else if ran {
		d.log.Debugf("wal compacted into a fresh snapshot")
	}
}

// startCloser starts closing matured epochs once per window. The cadence
// machinery is the collector's background closer (trust.Closer) with the
// daemon's clock injected; the Run hook substitutes the ring's close
// (coordinator merge / follower no-op) plus compaction for the plain
// collector pass.
func (d *daemon) startCloser() {
	d.closer = d.col.StartCloser(trust.CloserConfig{
		Interval: d.epoch,
		Lag:      d.epoch,
		Now:      d.clk.Now,
		After:    d.clk.After,
		Run: func(cutoff time.Time) []trust.Anomaly {
			d.closeEpochs(cutoff)
			return nil // closeEpochs logs its own anomalies
		},
	})
}

// shutdown drains the HTTP server, stops the background closer, then
// flushes every remaining epoch — including the still-maturing one.
// Losing the trailing window's evidence on restart would let a fabricator
// launder its history by timing a crash.
func (d *daemon) shutdown(srv *http.Server) {
	sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		d.log.Warnf("http shutdown: %v", err)
	}
	if d.stream != nil {
		// Fold every already-accepted frame before exiting: the grid and
		// session aggregates stay consistent with what sensors were acked.
		d.stream.Close()
	}
	if d.closer != nil {
		// Stop waits for an in-flight pass. The flush below must not
		// overlap one: two passes appending to one signal's history and
		// folding its correlation sums would do so in nondeterministic
		// order (CloseDrained is single-flight).
		d.closer.Stop()
	}
	// A follower's pending epochs live only in memory and only the
	// coordinator may close them: hand them over — including the
	// still-maturing window — so a graceful restart loses no acked
	// evidence. (On the coordinator this does nothing; the close below
	// takes them.) If the coordinator is down too, that evidence is lost:
	// agents re-submit only readings they never got a 202 for (ROADMAP
	// item 13). Log exactly what is at stake.
	if err := d.replica.FlushPending(d.clk.Now().Add(d.epoch)); err != nil {
		d.log.Warnf("shutdown handoff failed, trailing-window evidence lost with this process: %v", err)
	}
	d.closeEpochs(d.clk.Now().Add(d.epoch))
	if d.tlog != nil {
		if err := d.tlog.Close(); err != nil {
			d.log.Warnf("closing wal: %v", err)
		}
	}
	d.log.Infof("pending epochs closed, exiting")
}

// handler mounts the collector API — wrapped in the load-shedding and
// per-request-timeout middleware — onto the obs admin surface. The debug
// endpoints stay outside the timeout: a CPU profile legitimately takes
// longer than any API request should. The /replica/* peer protocol
// mounts outside the hardening middleware too — drains and catch-up
// streams are ring-internal and must not compete with agents for the
// in-flight budget — but every /replica/* route demands the shared ring
// credential, so on the public listener it is 403 to anything but a
// ring member.
func (d *daemon) handler() http.Handler {
	mux := obs.AdminMux(nil, nil, d.health)
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

// openTrustLog boots the WAL-backed trust store: recover the ledger from
// the newest snapshot plus the segment tail and wire the collector's
// mutations through the store.
func (d *daemon) openTrustLog(dir string) error {
	tlog, err := store.OpenTrustLog(dir, wal.Options{Metrics: wal.NewMetrics(obs.Default())})
	if err != nil {
		return err
	}
	stats, err := tlog.Recover(d.col.Ledger, d.clk.Now())
	if err != nil {
		tlog.Close()
		return err
	}
	if stats.TornBytes > 0 {
		d.log.Warnf("wal recovery truncated %d torn bytes from the tail", stats.TornBytes)
	}
	d.log.Infof("wal recovery: %d nodes from snapshot, %d records replayed",
		stats.SnapshotNodes, stats.Records)
	d.tlog = tlog
	d.col.Store = tlog
	return nil
}

// joinRing makes the daemon the member self of the collector ring spec
// (id=url,id=url); an empty spec is a ring of the daemon alone. Build it
// after openTrustLog: a joining peer's catch-up streams the WAL.
func (d *daemon) joinRing(self, spec string, vnodes int, secret string) error {
	members := []replica.Member{{ID: self}}
	if spec != "" {
		var err error
		if members, err = replica.ParseMembers(spec); err != nil {
			return fmt.Errorf("-ring: %w", err)
		}
	}
	node, err := replica.New(replica.Config{
		Self:      self,
		Members:   members,
		VNodes:    vnodes,
		Collector: d.col,
		Secret:    secret,
		Log:       d.tlog,
		Health:    d.health,
		Now:       d.clk.Now,
	})
	d.replica = node
	return err
}

// catchUp copies a live peer's state before the member reports ready.
// Outbound only, so it runs while this member already serves /replica/*
// to others — a whole ring booting at once converges (everyone copies an
// empty peer), a ring with no live peer within wait is a cold start, and
// a ring of one has no peer to wait for.
func (d *daemon) catchUp(ctx context.Context, wait time.Duration) {
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

func main() {
	logger := obs.NewLogger("spectrumd")
	var (
		addr    = flag.String("addr", ":8025", "listen address")
		epoch   = flag.Duration("epoch", time.Minute, "consensus epoch window")
		walDir  = flag.String("wal", "", "crash-safe trust store directory (empty: the ledger is kept in memory only)")
		walSegs = flag.Int("wal-compact-segments", store.DefaultCompactAfterSegments, "sealed wal segments that trigger snapshot compaction")

		replicaID   = flag.String("replica-id", "local", "this member's ID in the collector ring")
		ringSpec    = flag.String("ring", "", "full ring membership as id=url,id=url, including -replica-id (empty: a ring of this daemon alone)")
		ringSecret  = flag.String("ring-secret", "", "shared peer credential authenticating /replica/*, required when the ring has a peer (identical on every member; prefer SENSORCAL_RING_SECRET to keep it out of process listings)")
		ringVnodes  = flag.Int("ring-vnodes", replica.DefaultVirtualNodes, "virtual nodes per ring member (identical on every member)")
		catchupWait = flag.Duration("catchup-wait", 30*time.Second, "how long a booting replica waits for a live peer before assuming a cold start")

		profCont = flag.Bool("profile-contention", false, "enable runtime mutex/block profiling on /debug/pprof")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")

		traceCap    = flag.Int("trace-capacity", obs.DefaultTraceCapacity, "span ring capacity served on /debug/traces")
		traceSample = flag.Float64("trace-sample", 1, "head-sampling ratio for traces rooted here, in [0,1]")
		traceExport = flag.String("trace-export", "", "durable JSONL span spool path (empty: in-memory ring only)")

		streamOn    = flag.Bool("stream", true, "serve the fleet streaming spectrum API (/api/stream, /api/occupancy)")
		streamFFT   = flag.Int("stream-fft", 256, "streaming frame length in samples (power of two)")
		streamQueue = flag.Int("stream-queue", 8192, "bounded streaming frame queue; full sheds with 429")
		streamSess  = flag.Int("stream-sessions", 16384, "max concurrent sensor sessions")
		streamIdle  = flag.Duration("stream-idle", time.Minute, "evict sensor sessions idle this long")
		streamBand  = flag.String("stream-band", "470e6:698e6", "monitored occupancy band as lo:hi in Hz")
	)
	flag.Parse()
	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	logger.SetLevel(lv)
	traceCleanup, err := obs.ConfigureDefaultTracer(*traceCap, *traceSample, *traceExport)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	defer traceCleanup()
	if *profCont {
		// Sample every contended mutex event and blocking events ≥ 10 µs:
		// cheap enough for a collector, detailed enough to see stripes.
		obs.EnableContentionProfiling(1, 10_000)
		logger.Infof("mutex/block contention profiling enabled")
	}

	c := trust.NewShardedCollector(ingestStripes).Instrument(obs.Default())
	c.EpochWindow = *epoch
	health := obs.NewHealth()
	health.SetReady("ledger", false)
	d := &daemon{
		col: c, clk: clock.System{}, epoch: *epoch, log: logger,
		compactSegs: *walSegs, health: health,
	}
	if *walDir != "" {
		if err := d.openTrustLog(*walDir); err != nil {
			logger.Fatalf("opening wal %s: %v", *walDir, err)
		}
		// Degraded store = appends failing = mutations shed with 503: not
		// ready for traffic until the disk heals.
		health.AddCheck("store", func() bool { return !c.StoreDegraded() })
	}
	health.SetReady("ledger", true)
	secret := *ringSecret
	if secret == "" {
		secret = os.Getenv("SENSORCAL_RING_SECRET")
	}
	if err := d.joinRing(*replicaID, *ringSpec, *ringVnodes, secret); err != nil {
		logger.Fatalf("%v", err)
	}
	role := "follower"
	if d.replica.IsCoordinator() {
		role = "coordinator"
	}
	logger.Infof("replica %s (%s) in a %d-member ring, %d virtual nodes each",
		*replicaID, role, d.replica.Ring().Len(), d.replica.Ring().VirtualNodes())
	if *streamOn {
		lo, hi, err := parseBand(*streamBand)
		if err != nil {
			logger.Fatalf("-stream-band: %v", err)
		}
		sv, err := stream.NewService(stream.Config{
			FFTSize:     *streamFFT,
			QueueCap:    *streamQueue,
			MaxSessions: *streamSess,
			IdleAfter:   *streamIdle,
			Grid:        stream.GridConfig{LowHz: lo, HighHz: hi},
			Registry:    obs.Default(),
			Tracer:      obs.DefaultTracer(),
		})
		if err != nil {
			logger.Fatalf("stream service: %v", err)
		}
		d.stream = sv
		// An open aggregation breaker means frames are being shed at the
		// door: take the daemon out of rotation until it heals.
		health.AddCheck("stream", func() bool { return !sv.Degraded() })
		logger.Infof("streaming spectrum service on /api/stream (fft %d, queue %d, band %s)",
			*streamFFT, *streamQueue, *streamBand)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	d.startCloser()
	go d.catchUp(ctx, *catchupWait)

	srv := &http.Server{Addr: *addr, Handler: d.handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Infof("collector listening on %s (epoch window %s, %d ingest stripes)", *addr, *epoch, ingestStripes)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("%v", err)
		}
	case <-ctx.Done():
		stop()
		logger.Infof("signal received, shutting down")
		d.shutdown(srv)
	}
}
