// Command agentd runs a sensor node as a long-lived daemon: the paper's
// §5 end-to-end system. In its default free-running mode it plans its
// own traffic-aware measurement windows per day; pointed at a schedd
// fleet scheduler (-scheduler) it instead polls for leased measurement
// tasks — the scheduler decides when this node measures, the agent
// executes the windows and acknowledges completion (idempotently, so
// retried acks are safe). Either way it runs the ADS-B and frequency
// measurements at the chosen times, submits shared-signal readings to a
// spectrumd collector (when configured), and prints the evolving
// calibration report.
//
// Submission is store-and-forward: readings land in a durable spool
// first and a background drain loop ships them in batches through a
// retrier and a circuit breaker, so a collector outage — or an agentd
// crash — loses nothing the spool acknowledged. Restarting the daemon
// replays whatever the spool still holds; idempotency keys keep replays
// from double-counting at the collector. -spool names the spool's
// directory: a segment WAL (internal/store/wal) of readings and a
// delivered-through watermark. Older agentd releases kept a JSONL file
// at the same default path; agentd refuses to start on a file there, and
// leaves it untouched.
//
// By default it runs against an accelerated simulated clock so a full
// measurement day finishes in seconds; pass -realtime to pace the windows
// on the wall clock (for demonstration alongside fr24d/spectrumd/schedd).
//
// The admin server on -admin exposes the node's health: GET /metrics
// (campaign stage durations, decode counters, scheduler decisions,
// agent_tasks_* lease/complete counters, resilience_* retry/breaker/spool
// series in Prometheus text format), GET /debug/traces (span ring as
// JSON) and GET /debug/pprof/* (runtime profiles).
//
// Usage:
//
//	agentd [-site rooftop] [-node node-1] [-days 1] [-windows 4]
//	       [-scheduler http://host:8027] [-poll 30s] [-tasks 0]
//	       [-collector http://host:8025] [-spool agentd.spool.jsonl]
//	       [-drain 2s] [-realtime] [-parallel 0] [-seed 1]
//	       [-admin :8026] [-log-level info]
//	       [-trace-capacity 4096] [-trace-sample 1] [-trace-export spans.jsonl]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sensorcal/internal/agent"
	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/resilience"
	"sensorcal/internal/sched"
	"sensorcal/internal/trust"
	"sensorcal/internal/world"
)

func main() {
	logger := obs.NewLogger("agentd")
	var (
		siteName  = flag.String("site", "rooftop", "installation: rooftop, window or indoor")
		nodeID    = flag.String("node", "node-1", "node identity at the collector")
		days      = flag.Int("days", 1, "measurement days to run (free-running mode)")
		windows   = flag.Int("windows", 4, "measurement windows per day (free-running mode)")
		scheduler = flag.String("scheduler", "", "schedd base URL; set to lease measurement tasks instead of free-running")
		poll      = flag.Duration("poll", 30*time.Second, "lease poll interval when the queue is empty (scheduled mode)")
		maxTasks  = flag.Int("tasks", 0, "stop after completing this many scheduled tasks (0: run until signalled)")
		collector = flag.String("collector", "", "spectrumd base URL (empty: no submission)")
		spoolPath = flag.String("spool", "agentd.spool.jsonl", "store-and-forward spool directory for readings awaiting delivery (a file here, such as an older agentd's JSONL spool, is refused)")
		drainIv   = flag.Duration("drain", 2*time.Second, "spool drain interval")
		realtime  = flag.Bool("realtime", false, "pace windows on the wall clock")
		parallel  = flag.Int("parallel", 0, "measurement units run concurrently (0: GOMAXPROCS, 1: serial; results identical)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		admin     = flag.String("admin", ":8026", "admin listen address for /metrics, /debug/traces and /debug/pprof (empty: disabled)")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")

		traceCap    = flag.Int("trace-capacity", obs.DefaultTraceCapacity, "span ring capacity served on /debug/traces")
		traceSample = flag.Float64("trace-sample", 1, "head-sampling ratio for traces rooted here, in [0,1]")
		traceExport = flag.String("trace-export", "", "durable JSONL span spool path (empty: in-memory ring only)")
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

	var site *world.Site
	for _, s := range world.Sites() {
		if s.Name == *siteName {
			site = s
		}
	}
	if site == nil {
		logger.Fatalf("unknown site %q", *siteName)
	}

	if *admin != "" {
		health := obs.NewHealth()
		health.SetReady("agent", true)
		srv := &http.Server{Addr: *admin, Handler: obs.AdminMux(nil, nil, health)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Warnf("admin server: %v", err)
			}
		}()
		logger.Infof("admin endpoints on %s (/healthz, /readyz, /metrics, /debug/traces, /debug/pprof)", *admin)
	}

	// Ctrl-C / SIGTERM cancels the measurement loop; the deferred spool
	// flush below still runs so buffered readings survive the shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var col agent.Collector
	delivery := &agent.Delivery{Log: logger}
	if *collector != "" {
		spool, err := resilience.OpenSpool(*spoolPath)
		if err != nil {
			logger.Fatalf("opening spool: %v", err)
		}
		spool.Instrument(nil)
		defer spool.Close()
		if n := spool.Len(); n > 0 {
			logger.Infof("spool %s holds %d undelivered readings from a previous run", *spoolPath, n)
		}
		tc, err := trust.NewClient(trust.ClientConfig{
			BaseURL: *collector,
			Spool:   spool,
			Retrier: resilience.NewRetrier(resilience.Policy{
				MaxAttempts: 5,
				BaseDelay:   100 * time.Millisecond,
				MaxDelay:    5 * time.Second,
				Seed:        *seed,
			}).Instrument(nil),
			Breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Name:             "collector",
				FailureThreshold: 5,
				OpenFor:          15 * time.Second,
			}).Instrument(nil),
			Logger: logger,
		})
		if err != nil {
			logger.Fatalf("%v", err)
		}
		if err := tc.Register(ctx, trust.NodeID(*nodeID), "agentd", *siteName); err != nil {
			logger.Fatalf("registering with collector: %v", err)
		}
		logger.Infof("registered %s with collector %s", *nodeID, *collector)
		go tc.Run(ctx, *drainIv)
		col = tc
		delivery.D = tc
	}

	start := time.Now().Truncate(time.Hour)
	var clk clock.Clock
	var sim *clock.Simulated
	if *realtime {
		clk = clock.System{}
	} else {
		sim = clock.NewSimulated(start)
		clk = sim
	}

	a, err := agent.New(agent.Config{
		Node: trust.NodeID(*nodeID),
		Site: site,
		Traffic: agent.SimTraffic{
			Center: world.BuildingOrigin, Radius: 100_000, Count: 60, Seed: *seed,
		},
		Towers:        world.Towers(),
		TV:            world.TVStations(),
		Clock:         clk,
		Collector:     col,
		WindowsPerDay: *windows,
		Seed:          *seed,
		Parallelism:   *parallel,
	})
	if err != nil {
		logger.Fatalf("%v", err)
	}

	if sim != nil {
		// Drive the simulated clock forward continuously.
		go func() {
			for {
				sim.Advance(5 * time.Minute)
				time.Sleep(time.Millisecond)
			}
		}()
	}

	if *scheduler != "" {
		runScheduled(ctx, a, site, *scheduler, *poll, *maxTasks, *seed, delivery, logger)
		return
	}

	for d := 0; d < *days; d++ {
		from := start.Add(time.Duration(d) * 24 * time.Hour)
		logger.Infof("planning day %d from %s", d+1, from.Format(time.RFC3339))
		if err := a.RunDay(ctx, from); err != nil {
			delivery.FinalFlush()
			logger.Fatalf("%v", err)
		}
		printReport(a, site, fmt.Sprintf("day %d", d+1), logger)
	}
	delivery.FinalFlush()
}

// runScheduled is the fleet-scheduler mode: poll schedd for leased
// measurement windows, execute them, acknowledge completion. The sched
// client carries its own retrier and circuit breaker, so transient
// scheduler outages are absorbed the same way collector outages are.
func runScheduled(ctx context.Context, a *agent.Agent, site *world.Site,
	schedURL string, poll time.Duration, maxTasks int, seed int64,
	delivery *agent.Delivery, logger *obs.Logger) {
	sc, err := sched.NewClient(sched.ClientConfig{
		BaseURL: schedURL,
		Retrier: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 5,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    5 * time.Second,
			Seed:        seed,
		}).Instrument(nil),
		Breaker: resilience.NewBreaker(resilience.BreakerConfig{
			Name:             "scheduler",
			FailureThreshold: 5,
			OpenFor:          15 * time.Second,
		}).Instrument(nil),
		Logger: logger,
	})
	if err != nil {
		logger.Fatalf("%v", err)
	}
	logger.Infof("leasing measurement tasks from %s (poll %s)", schedURL, poll)
	err = a.RunScheduled(ctx, sc, agent.ScheduledOptions{Poll: poll, MaxTasks: maxTasks})
	if err != nil && ctx.Err() == nil {
		delivery.FinalFlush()
		logger.Fatalf("%v", err)
	}
	printReport(a, site, fmt.Sprintf("%d scheduled rounds", len(a.Rounds())), logger)
	delivery.FinalFlush()
}

// printReport renders the accumulated calibration state.
func printReport(a *agent.Agent, site *world.Site, label string, logger *obs.Logger) {
	rep := a.LatestReport()
	rep.AttachPowerCalibration(site, nil)
	fmt.Printf("\n=== after %s (%d rounds) ===\n%s", label, len(a.Rounds()), rep.Render())
	covered := a.CoveredSectors()
	n := 0
	for _, c := range covered {
		if c {
			n++
		}
	}
	logger.Log(obs.LevelInfo, "sector coverage", "covered", n, "of", 12)
}
