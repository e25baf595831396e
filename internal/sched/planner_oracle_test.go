package sched

import (
	"fmt"
	"sort"
	"time"

	"sensorcal/internal/calib"
)

// The planner before it delegated window picking to
// calib.PlanMeasurements: its own hour ranking, its own copy of the 0.8
// covered-sector discount and a per-window Predict on the forecaster.
// The bodies are kept verbatim (renamed, with the forecaster method
// turned into a function over the same histogram, and the staleness
// factor with the StaleAfter knob it took) so Plan is pinned
// against them: TestPlanMatchesOracle and FuzzPlanMatchesOracle require
// the same tasks, in the same order, with the same float64 bits.

// oraclePlanConfig is the old PlanConfig, knobs included.
type oraclePlanConfig struct {
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
	// StaleAfter is the age at which a node's calibration counts as fully
	// stale; staleness saturates there. Zero means
	// calib.DefaultMaxReportAge — the same bound the marketplace uses to
	// stop trusting a report.
	StaleAfter time.Duration
	// MinYield drops candidate windows whose discounted yield falls
	// below it: measuring an empty sky wastes the duty budget.
	MinYield float64
	// TaskGrace is how long past its window start a task stays
	// executable before the queue expires it. Zero means one hour.
	TaskGrace time.Duration
	// Campaign is the per-task measurement template. The planner
	// constructs campaign configs programmatically, so it fails fast on
	// nonsense parameters via CampaignConfig.Validate instead of letting
	// a misconfigured fleet burn measurement windows. Zero fields get
	// conventional defaults (1 run, WindowLength spacing, 60 aircraft,
	// 100 km radius).
	Campaign calib.CampaignConfig
}

// oracleYield is the forecast for one candidate measurement window.
type oracleYield struct {
	// ExpectedAircraft is the predicted count of distinct aircraft within
	// ground-truth range during the window — the paper's "flight density"
	// signal: a 30 s capture can only observe what is overhead.
	ExpectedAircraft float64
	// PerSector splits the expectation across 30° bearing sectors.
	PerSector [12]float64
	// Samples is how many snapshots back the hour-of-day estimate; zero
	// means Fallback.
	Samples int
	// Fallback marks a prediction built from the site-wide mean (or
	// nothing at all) because the hour has no history yet.
	Fallback bool
}

// oraclePredict returns the expected yield of a window starting at the given
// time at the given site. An hour with no history falls back to the
// site-wide mean; an unknown site predicts zero with Fallback set.
func oraclePredict(f *Forecaster, site string, at time.Time) oracleYield {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.sites[site]
	if !ok || h.totalN == 0 {
		return oracleYield{Fallback: true}
	}
	hour := at.Hour()
	if n := h.hourN[hour]; n > 0 {
		y := oracleYield{ExpectedAircraft: h.hourSum[hour] / float64(n), Samples: n}
		for b := range y.PerSector {
			y.PerSector[b] = h.sectorSum[hour][b] / float64(n)
		}
		return y
	}
	y := oracleYield{ExpectedAircraft: h.totalSum / float64(h.totalN), Fallback: true}
	for b := range y.PerSector {
		y.PerSector[b] = h.sectorsAll[b] / float64(h.totalN)
	}
	return y
}

// oraclePlan turns fleet state plus the forecast into prioritized measurement
// tasks: every node gets its highest-yield windows (discounted for
// sectors it already covered), bounded by its duty budget, and the
// result is ordered by priority — staleness × yield — so the stalest
// node's best windows dispatch first. The output is deterministic for a
// fixed forecaster state and fleet.
func oraclePlan(f *Forecaster, nodes []NodeState, cfg oraclePlanConfig) ([]Task, error) {
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
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = calib.DefaultMaxReportAge
	}
	if cfg.TaskGrace <= 0 {
		cfg.TaskGrace = time.Hour
	}
	campaign := cfg.Campaign
	if campaign.Runs == 0 {
		campaign.Runs = 1
	}
	if campaign.Spacing == 0 {
		campaign.Spacing = cfg.WindowLength
	}
	if campaign.Aircraft == 0 {
		campaign.Aircraft = 60
	}
	if campaign.RadiusM == 0 {
		campaign.RadiusM = 100_000
	}
	if err := campaign.Validate(); err != nil {
		return nil, fmt.Errorf("sched: campaign template: %w", err)
	}

	// Candidate slots: the full hours inside the horizon.
	var slots []time.Time
	for t := cfg.Now.Truncate(time.Hour); t.Before(cfg.Now.Add(cfg.Horizon)); t = t.Add(time.Hour) {
		if t.Before(cfg.Now) {
			continue
		}
		slots = append(slots, t)
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("sched: horizon %s from %s contains no full hours", cfg.Horizon, cfg.Now)
	}

	// Sort the fleet by node ID so ties resolve identically across runs.
	ordered := append([]NodeState(nil), nodes...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Node < ordered[j].Node })

	var tasks []Task
	for _, n := range ordered {
		stale := oracleStalenessFactor(n, cfg.Now, cfg.StaleAfter)
		type cand struct {
			start time.Time
			yield oracleYield
			eff   float64
		}
		var cands []cand
		for _, s := range slots {
			y := oraclePredict(f, n.Site, s)
			eff := oracleDiscountCovered(y, n.Covered)
			if eff < cfg.MinYield {
				continue
			}
			cands = append(cands, cand{start: s, yield: y, eff: eff})
		}
		// Best yield first; earlier start breaks ties so a flat forecast
		// still schedules promptly.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].eff != cands[j].eff {
				return cands[i].eff > cands[j].eff
			}
			return cands[i].start.Before(cands[j].start)
		})
		budget := n.DutyBudget
		limited := n.DutyBudget > 0
		taken := 0
		for _, c := range cands {
			if taken >= cfg.MaxTasksPerNode {
				break
			}
			cost := time.Duration(campaign.Runs) * cfg.WindowLength
			if limited && cost > budget {
				break
			}
			tasks = append(tasks, Task{
				ID:               TaskID(n.Node, c.start),
				Node:             n.Node,
				Site:             n.Site,
				Start:            c.start,
				Duration:         cfg.WindowLength,
				Runs:             campaign.Runs,
				ExpectedAircraft: c.yield.ExpectedAircraft,
				Priority:         stale * c.eff,
				NotAfter:         c.start.Add(cfg.WindowLength + cfg.TaskGrace),
			})
			taken++
			if limited {
				budget -= cost
			}
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

// oracleDiscountCovered reduces a window's yield by the share of its traffic
// flying through sectors the node already measured confidently (the same
// 0.8 discount calib.PlanMeasurements applies).
func oracleDiscountCovered(y oracleYield, covered [12]bool) float64 {
	var total, coveredShare float64
	for b, c := range y.PerSector {
		total += c
		if covered[b] {
			coveredShare += c
		}
	}
	if total <= 0 {
		// No sector detail: fall back to the covered-count fraction.
		n := 0
		for _, c := range covered {
			if c {
				n++
			}
		}
		return y.ExpectedAircraft * (1 - 0.8*float64(n)/12)
	}
	return y.ExpectedAircraft * (1 - 0.8*coveredShare/total)
}

// oracleStalenessFactor maps a node's calibration age onto [0.1, 1]: fresh
// nodes keep a floor (coverage still decays) while nodes at or past
// StaleAfter — or that never reported at all — saturate at 1 and
// dominate the dispatch order.
func oracleStalenessFactor(n NodeState, now time.Time, staleAfter time.Duration) float64 {
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
