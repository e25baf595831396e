// Command schedd is the fleet measurement scheduler: the control plane
// that decides what the crowd-sourced network measures and when. It
// learns flight density from ground-truth traffic snapshots, reads each
// node's staleness from the collector's trust ledger, plans prioritized
// measurement windows (high-yield hours for the stalest nodes first) and
// serves them to agents through a lease-based work queue — leases carry
// deadlines, expired leases requeue, completion is idempotent.
//
// Inputs are both optional and degrade gracefully:
//
//   - -fr24 points at an fr24d ground-truth server; without it schedd
//     trains its forecaster on a simulated diurnal traffic pattern
//     (calib.TypicalAirportForecast densities through flightsim).
//   - -fleet points at a spectrumd collector whose GET /api/fleet
//     supplies the per-node staleness signal; without it the fleet is
//     the static -nodes list, treated as never-measured (maximally
//     stale), which schedules everyone promptly — the right bootstrap.
//
// Usage:
//
//	schedd [-addr :8027] [-site rooftop] [-nodes node-1,node-2]
//	       [-fleet http://host:8025] [-fr24 http://host:8024]
//	       [-plan-every 10m] [-horizon 24h] [-window 30s] [-per-node 4]
//	       [-duty 10m] [-lease-ttl 2m] [-radius-km 100] [-seed 42]
//	       [-admin-off] [-log-level info]
//	       [-trace-capacity 4096] [-trace-sample 1] [-trace-export spans.jsonl]
//
// Endpoints:
//
//	POST /api/lease    — {"node","max"} → granted leases
//	POST /api/complete — {"task_id","token"} → completed | duplicate
//	GET  /api/stats    — queue depth summary
//	GET  /metrics      — sched_* series (queue depth, lease age, task
//	                     latency, forecast yield) in Prometheus text
//	GET  /debug/traces, /debug/pprof/* — obs admin surface
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sensorcal/internal/calib"
	"sensorcal/internal/clock"
	"sensorcal/internal/flightsim"
	"sensorcal/internal/fr24"
	"sensorcal/internal/geo"
	"sensorcal/internal/obs"
	"sensorcal/internal/sched"
	"sensorcal/internal/trust"
	"sensorcal/internal/world"
)

// daemon is the testable core of schedd: the plan loop runs against an
// injectable clock and fetch/observe functions, so tests drive it
// without listeners.
type daemon struct {
	forecaster *sched.Forecaster
	queue      *sched.Queue
	clk        clock.Clock
	log        *obs.Logger

	site     *world.Site
	radiusM  float64
	seed     int64
	horizon  time.Duration
	window   time.Duration
	perNode  int
	duty     time.Duration
	minYield float64

	// fr24c queries live ground truth; nil uses the simulated diurnal
	// pattern.
	fr24c *fr24.Client
	// fleetURL is the collector to poll for staleness; empty uses the
	// static node list.
	fleetURL string
	nodes    []trust.NodeID
}

// observeTraffic folds one traffic snapshot into the forecaster — live
// from fr24d when configured, otherwise a simulated population whose
// size follows the typical diurnal airport pattern so the forecaster
// has a density gradient to learn.
func (d *daemon) observeTraffic(ctx context.Context, at time.Time) {
	if d.fr24c != nil {
		flights, err := d.fr24c.Flights(ctx, d.site.Position, d.radiusM/1000, at)
		if err != nil {
			d.log.Warnf("ground-truth snapshot: %v", err)
			return
		}
		d.forecaster.Observe(d.site.Name, at, d.site.Position, flights)
		return
	}
	density := calib.TypicalAirportForecast().HourlyDensity[at.Hour()]
	fleet, err := flightsim.NewFleet(at, flightsim.Config{
		Center: d.site.Position,
		Radius: d.radiusM,
		Count:  int(density),
		Seed:   d.seed ^ at.Unix(),
	})
	if err != nil {
		d.log.Warnf("simulated traffic: %v", err)
		return
	}
	flights, err := fr24.NewService(fleet).Query(at, d.site.Position, d.radiusM)
	if err != nil {
		d.log.Warnf("simulated snapshot: %v", err)
		return
	}
	d.forecaster.Observe(d.site.Name, at, d.site.Position, flights)
}

// fleetState assembles planner input: live staleness from the collector
// when configured, else the static node list as never-measured.
func (d *daemon) fleetState(ctx context.Context) []sched.NodeState {
	if d.fleetURL != "" {
		entries, err := sched.FetchFleet(ctx, nil, d.fleetURL)
		if err != nil {
			d.log.Warnf("fleet query: %v (planning skipped this pass)", err)
			return nil
		}
		states := make([]sched.NodeState, 0, len(entries))
		for _, e := range entries {
			states = append(states, sched.NodeStateOf(e, d.site.Name, d.duty))
		}
		return states
	}
	states := make([]sched.NodeState, 0, len(d.nodes))
	for _, n := range d.nodes {
		states = append(states, sched.NodeState{
			Node: n, Site: d.site.Name, DutyBudget: d.duty,
		})
	}
	return states
}

// planOnce runs one observe → fetch → plan → enqueue pass.
func (d *daemon) planOnce(ctx context.Context) {
	now := d.clk.Now()
	d.observeTraffic(ctx, now)
	nodes := d.fleetState(ctx)
	if len(nodes) == 0 {
		return
	}
	tasks, err := sched.Plan(d.forecaster, nodes, sched.PlanConfig{
		Now:             now,
		Horizon:         d.horizon,
		WindowLength:    d.window,
		MaxTasksPerNode: d.perNode,
		MinYield:        d.minYield,
	})
	if err != nil {
		d.log.Warnf("planning: %v", err)
		return
	}
	added, err := d.queue.Add(tasks...)
	if err != nil {
		d.log.Warnf("enqueue: %v", err)
		return
	}
	requeued, dropped := d.queue.ExpireLeases(now)
	st := d.queue.Stats()
	d.log.Infof("planned %d tasks (%d new) for %d nodes; queue pending=%d leased=%d requeued=%d dropped=%d",
		len(tasks), added, len(nodes), st.Pending, st.Leased, requeued, dropped)
}

// planLoop re-plans every interval until ctx is done.
func (d *daemon) planLoop(ctx context.Context, every time.Duration) {
	d.planOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-d.clk.After(every):
			d.planOnce(ctx)
		}
	}
}

func main() {
	logger := obs.NewLogger("schedd")
	var (
		addr      = flag.String("addr", ":8027", "listen address")
		siteName  = flag.String("site", "rooftop", "installation whose forecast drives planning")
		nodesCSV  = flag.String("nodes", "node-1", "comma-separated node IDs when no -fleet collector is configured")
		fleetURL  = flag.String("fleet", "", "spectrumd base URL for live fleet staleness (empty: static -nodes list)")
		fr24URL   = flag.String("fr24", "", "fr24d base URL for live traffic snapshots (empty: simulated diurnal pattern)")
		planEvery = flag.Duration("plan-every", 10*time.Minute, "re-planning interval")
		horizon   = flag.Duration("horizon", 24*time.Hour, "planning horizon")
		window    = flag.Duration("window", 30*time.Second, "measurement window length")
		perNode   = flag.Int("per-node", 4, "max tasks per node per planning pass")
		duty      = flag.Duration("duty", 0, "per-node duty-cycle budget per horizon (0: unlimited)")
		leaseTTL  = flag.Duration("lease-ttl", 2*time.Minute, "lease grace past the scheduled window end")
		minYield  = flag.Float64("min-yield", 0, "drop candidate windows forecasting fewer aircraft than this")
		radiusKM  = flag.Float64("radius-km", 100, "traffic radius around the site")
		seed      = flag.Int64("seed", 42, "simulation seed for the traffic fallback")
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
	if site.Position == (geo.Point{}) {
		logger.Fatalf("site %q has no position", *siteName)
	}

	var nodes []trust.NodeID
	for _, n := range strings.Split(*nodesCSV, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, trust.NodeID(n))
		}
	}
	if *fleetURL == "" && len(nodes) == 0 {
		logger.Fatalf("need -fleet or a non-empty -nodes list")
	}

	d := &daemon{
		forecaster: sched.NewForecaster(),
		queue:      sched.NewQueue(sched.QueueConfig{LeaseTTL: *leaseTTL}),
		clk:        clock.System{},
		log:        logger,
		site:       site,
		radiusM:    *radiusKM * 1000,
		seed:       *seed,
		horizon:    *horizon,
		window:     *window,
		perNode:    *perNode,
		duty:       *duty,
		minYield:   *minYield,
		fleetURL:   *fleetURL,
		nodes:      nodes,
	}
	if *fr24URL != "" {
		d.fr24c = fr24.NewClient(*fr24URL)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go d.planLoop(ctx, *planEvery)

	health := obs.NewHealth()
	health.SetReady("queue", true)
	mux := obs.AdminMux(nil, nil, health)
	api := &sched.Server{Q: d.queue, Log: logger}
	mux.Handle("/api/", api.Handler())
	srv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Infof("scheduler listening on %s (site %s, plan every %s, horizon %s)",
		*addr, site.Name, *planEvery, *horizon)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("%v", err)
		}
	case <-ctx.Done():
		stop()
		logger.Infof("signal received, shutting down")
		sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sdCtx); err != nil {
			logger.Warnf("http shutdown: %v", err)
		}
		st := d.queue.Stats()
		logger.Infof("exiting with %d pending, %d leased", st.Pending, st.Leased)
	}
}
