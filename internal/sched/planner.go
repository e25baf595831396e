package sched

import (
	"fmt"
	"sort"
	"time"

	"sensorcal/internal/calib"
	"sensorcal/internal/world"
)

// Campaign materializes the repeated directional procedure for a leased
// task at a concrete site. The scheduler constructs campaign configs
// programmatically, so the parameters are validated here — a task that
// would produce a zero-run or zero-radius campaign fails fast instead of
// burning the node's duty budget on a no-op.
func (t Task) Campaign(site *world.Site, aircraft int, radiusM float64, seed int64) (calib.CampaignConfig, error) {
	runs := t.Runs
	if runs == 0 {
		runs = 1
	}
	cfg := calib.CampaignConfig{
		Site:     site,
		Aircraft: aircraft,
		RadiusM:  radiusM,
		Runs:     runs,
		Start:    t.Start,
		Spacing:  t.Duration,
		Seed:     seed,
	}
	if err := cfg.Validate(); err != nil {
		return calib.CampaignConfig{}, fmt.Errorf("sched: task %s: %w", t.ID, err)
	}
	return cfg, nil
}

// PlanConfig controls one planning pass.
type PlanConfig struct {
	// Now anchors staleness computations and the start of the horizon.
	Now time.Time
	// Horizon is how far ahead to plan; candidate windows are the full
	// hours in [Now, Now+Horizon). Zero means 24 h.
	Horizon time.Duration
	// WindowLength is each measurement window's duration (paper: 30 s).
	WindowLength time.Duration
	// MaxTasksPerNode caps windows assigned to one node per pass. Zero
	// means 4.
	MaxTasksPerNode int
	// MinYield drops picked windows whose discounted yield falls below
	// it: measuring an empty sky wastes the duty budget.
	MinYield float64
}

// taskGrace is how long past its window a task stays executable before
// the queue expires it.
const taskGrace = time.Hour

// Plan turns fleet state plus the forecast into prioritized measurement
// tasks. Each node's windows are picked by calib.PlanMeasurements — the
// same §5 picker a free-running agent uses — on its site's learned
// forecast, with as many windows as MaxTasksPerNode and its duty budget
// allow. The result is ordered by priority — staleness × yield — so the
// stalest node's best windows dispatch first. The output is
// deterministic for a fixed forecaster state and fleet.
func Plan(f *Forecaster, nodes []NodeState, cfg PlanConfig) ([]Task, error) {
	if cfg.Now.IsZero() {
		return nil, fmt.Errorf("sched: plan needs an anchor time")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 24 * time.Hour
	}
	if cfg.WindowLength <= 0 {
		cfg.WindowLength = 30 * time.Second
	}
	if cfg.MaxTasksPerNode <= 0 {
		cfg.MaxTasksPerNode = 4
	}

	// Sort the fleet by node ID so ties resolve identically across runs.
	ordered := append([]NodeState(nil), nodes...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Node < ordered[j].Node })

	forecasts := make(map[string]calib.TrafficForecast)
	var tasks []Task
	for _, n := range ordered {
		windows := cfg.MaxTasksPerNode
		if n.DutyBudget > 0 {
			windows = min(windows, int(n.DutyBudget/cfg.WindowLength))
		}
		if windows == 0 {
			continue
		}
		fc, ok := forecasts[n.Site]
		if !ok {
			fc = f.TrafficForecast(n.Site)
			forecasts[n.Site] = fc
		}
		picks, err := calib.PlanMeasurements(calib.ScheduleConfig{
			Forecast:       fc,
			From:           cfg.Now,
			Horizon:        cfg.Horizon,
			Windows:        windows,
			WindowLength:   cfg.WindowLength,
			CoveredSectors: n.Covered,
		})
		if err != nil {
			return nil, fmt.Errorf("sched: node %s: %w", n.Node, err)
		}
		stale := stalenessFactor(n, cfg.Now)
		for _, w := range picks {
			if w.InfoGain < cfg.MinYield {
				continue
			}
			tasks = append(tasks, Task{
				ID:               TaskID(n.Node, w.Start),
				Node:             n.Node,
				Site:             n.Site,
				Start:            w.Start,
				Duration:         cfg.WindowLength,
				Runs:             1,
				ExpectedAircraft: w.ExpectedAircraft,
				Priority:         stale * w.InfoGain,
				NotAfter:         w.Start.Add(cfg.WindowLength + taskGrace),
			})
		}
	}
	// Global dispatch order: stalest-node × highest-yield first, with
	// deterministic tie-breaks.
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Priority != tasks[j].Priority {
			return tasks[i].Priority > tasks[j].Priority
		}
		if tasks[i].Node != tasks[j].Node {
			return tasks[i].Node < tasks[j].Node
		}
		return tasks[i].Start.Before(tasks[j].Start)
	})
	return tasks, nil
}

// stalenessFactor maps a node's calibration age onto [0.1, 1]: fresh
// nodes keep a floor (coverage still decays) while nodes at or past
// calib.DefaultMaxReportAge — the bound the marketplace uses to stop
// trusting a report — or that never reported at all saturate at 1 and
// dominate the dispatch order.
func stalenessFactor(n NodeState, now time.Time) float64 {
	const staleAfter = calib.DefaultMaxReportAge
	age := staleAfter // "never" is fully stale
	if !n.LastReport.IsZero() {
		age = now.Sub(n.LastReport)
	}
	if !n.LastReading.IsZero() {
		if ra := now.Sub(n.LastReading); n.LastReport.IsZero() || ra > age {
			age = ra
		}
	}
	frac := float64(age) / float64(staleAfter)
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return 0.1 + 0.9*frac
}
