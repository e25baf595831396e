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
// internal/spectrumd assembles the daemon (its package doc covers the
// ingest stripes, the ring and the WAL); this command serves it.
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
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/replica"
	"sensorcal/internal/spectrumd"
	"sensorcal/internal/store"
)

func main() {
	var cfg spectrumd.Config
	addr := flag.String("addr", ":8025", "listen address")
	flag.DurationVar(&cfg.Epoch, "epoch", time.Minute, "consensus epoch window")
	flag.StringVar(&cfg.WAL, "wal", "", "crash-safe trust store directory (empty: the ledger is kept in memory only)")
	flag.IntVar(&cfg.WALCompactSegments, "wal-compact-segments", store.DefaultCompactAfterSegments, "sealed wal segments that trigger snapshot compaction")
	flag.StringVar(&cfg.ReplicaID, "replica-id", "local", "this member's ID in the collector ring")
	flag.StringVar(&cfg.Ring, "ring", "", "full ring membership as id=url,id=url, including -replica-id (empty: a ring of this daemon alone)")
	flag.StringVar(&cfg.RingSecret, "ring-secret", "", "shared peer credential authenticating /replica/*, required when the ring has a peer (identical on every member; prefer SENSORCAL_RING_SECRET to keep it out of process listings)")
	flag.IntVar(&cfg.RingVNodes, "ring-vnodes", replica.DefaultVirtualNodes, "virtual nodes per ring member (identical on every member)")
	flag.DurationVar(&cfg.CatchupWait, "catchup-wait", 30*time.Second, "how long a booting replica waits for a live peer before assuming a cold start")
	flag.BoolVar(&cfg.ProfileContention, "profile-contention", false, "enable runtime mutex/block profiling on /debug/pprof")
	flag.StringVar(&cfg.LogLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.IntVar(&cfg.TraceCapacity, "trace-capacity", obs.DefaultTraceCapacity, "span ring capacity served on /debug/traces")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", 1, "head-sampling ratio for traces rooted here, in [0,1]")
	flag.StringVar(&cfg.TraceExport, "trace-export", "", "durable JSONL span spool path (empty: in-memory ring only)")
	flag.BoolVar(&cfg.Stream, "stream", true, "serve the fleet streaming spectrum API (/api/stream, /api/occupancy)")
	flag.IntVar(&cfg.StreamFFT, "stream-fft", 256, "streaming frame length in samples (power of two)")
	flag.IntVar(&cfg.StreamQueue, "stream-queue", 8192, "bounded streaming frame queue; full sheds with 429")
	flag.IntVar(&cfg.StreamSessions, "stream-sessions", 16384, "max concurrent sensor sessions")
	flag.DurationVar(&cfg.StreamIdle, "stream-idle", time.Minute, "evict sensor sessions idle this long")
	flag.StringVar(&cfg.StreamBand, "stream-band", "470e6:698e6", "monitored occupancy band as lo:hi in Hz")
	flag.Parse()
	if cfg.RingSecret == "" {
		cfg.RingSecret = os.Getenv("SENSORCAL_RING_SECRET")
	}
	d, err := spectrumd.New(cfg)
	if err != nil {
		obs.NewLogger("spectrumd").Fatalf("%v", err)
	}
	logger := d.Logger()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: d.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Infof("collector listening on %s (epoch window %s)", *addr, cfg.Epoch)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("%v", err)
		}
	case <-ctx.Done():
		stop()
		logger.Infof("signal received, shutting down")
		// Drain the HTTP server, then close every pending epoch into the WAL.
		sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sdCtx); err != nil {
			logger.Warnf("http shutdown: %v", err)
		}
		d.Shutdown()
	}
}
