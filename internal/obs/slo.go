package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sensorcal/internal/clock"
)

// Multi-window burn-rate SLO evaluation (the Google SRE workbook
// alerting scheme) over the RED middleware's server histogram. For an
// availability objective O, the error budget is 1−O; the burn rate is
//
//	burn = error_rate / (1 − O)
//
// — burn 1 spends the budget exactly over the SLO period, burn 14 spends
// a 30-day budget in ~2 days. Two windows separate "page now" from
// "watch it": a fast window (default 5 m) catches sharp regressions, a
// slow window (default 1 h) confirms sustained ones; alerting on the
// conjunction suppresses blips. The registry's counters are cumulative,
// so the evaluator keeps a ring of periodic snapshots and differences
// them, sampling on scrape with no background goroutine.

// SLOConfig assembles an SLO evaluator.
type SLOConfig struct {
	// Registry holding the request histogram; nil means the process-wide
	// default.
	Registry *Registry
	// Metric is the histogram family to evaluate. It must be labelled
	// with at least a "code" label carrying the middleware's status
	// classes; remaining labels identify the route. Empty means
	// "http_server_request_seconds".
	Metric string
	// Objective is the availability target in (0,1), e.g. 0.999. Zero
	// means 0.999.
	Objective float64
	// FastWindow and SlowWindow are the two burn-rate horizons. Zero
	// means 5 m and 1 h.
	FastWindow, SlowWindow time.Duration
	// Clock stamps snapshots; nil means the wall clock. Tests drive a
	// simulated clock to pin window arithmetic.
	Clock clock.Clock
}

// RouteBurn is the report entry for one route.
type RouteBurn struct {
	// Route joins the identifying label values, e.g. "schedd /api/lease".
	Route string `json:"route"`
	// Requests and Errors are the cumulative totals at the latest sample.
	Requests float64 `json:"requests"`
	Errors   float64 `json:"errors"`
	// FastErrorRate/SlowErrorRate are windowed error fractions in [0,1].
	FastErrorRate float64 `json:"fast_error_rate"`
	SlowErrorRate float64 `json:"slow_error_rate"`
	// FastBurn/SlowBurn are the windowed error rates over the error
	// budget: >1 means the budget is being spent faster than it accrues.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
}

// SLOReport is the /debug/slo payload.
type SLOReport struct {
	At         time.Time   `json:"at"`
	Metric     string      `json:"metric"`
	Objective  float64     `json:"objective"`
	FastWindow string      `json:"fast_window"`
	SlowWindow string      `json:"slow_window"`
	Routes     []RouteBurn `json:"routes"`
}

// routeCount is one route's cumulative totals at a point in time.
type routeCount struct{ total, errors float64 }

// sloSnapshot is one Sample's view of every route.
type sloSnapshot struct {
	at     time.Time
	routes map[string]routeCount
}

// SLO evaluates burn rates from a registry's request histogram.
type SLO struct {
	reg        *Registry
	metric     string
	objective  float64
	fast, slow time.Duration
	clk        clock.Clock

	mu   sync.Mutex
	ring []sloSnapshot
}

// NewSLO returns an evaluator with config defaults applied.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Registry == nil {
		cfg.Registry = Default()
	}
	if cfg.Metric == "" {
		cfg.Metric = "http_server_request_seconds"
	}
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = 0.999
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = 5 * time.Minute
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = time.Hour
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	return &SLO{
		reg: cfg.Registry, metric: cfg.Metric, objective: cfg.Objective,
		fast: cfg.FastWindow, slow: cfg.SlowWindow, clk: cfg.Clock,
	}
}

// errorCodes are the status classes that spend error budget. 4xx is the
// caller's fault and deliberately excluded — a flood of bad requests
// must not page the service owner.
func isErrorCode(code string) bool { return code == "5xx" || code == "error" }

// Sample snapshots the histogram's cumulative per-route totals. Handler
// calls it on every scrape; snapshots older than the slow window are
// discarded.
func (s *SLO) Sample() {
	labels, values := s.reg.Samples(s.metric)
	codeIdx := -1
	for i, l := range labels {
		if l == "code" {
			codeIdx = i
		}
	}
	snap := sloSnapshot{at: s.clk.Now(), routes: make(map[string]routeCount)}
	if codeIdx >= 0 {
		for _, v := range values {
			if len(v.Labels) != len(labels) {
				continue
			}
			parts := make([]string, 0, len(v.Labels)-1)
			for i, lv := range v.Labels {
				if i != codeIdx {
					parts = append(parts, lv)
				}
			}
			key := strings.Join(parts, " ")
			rc := snap.routes[key]
			rc.total += v.Value
			if isErrorCode(v.Labels[codeIdx]) {
				rc.errors += v.Value
			}
			snap.routes[key] = rc
		}
	}
	s.mu.Lock()
	s.ring = append(s.ring, snap)
	cutoff := snap.at.Add(-s.slow - time.Minute)
	i := 0
	for i < len(s.ring)-1 && s.ring[i].at.Before(cutoff) {
		i++
	}
	s.ring = s.ring[i:]
	s.mu.Unlock()
}

// windowRate differences the latest snapshot against the oldest one
// inside the window and returns the error fraction of the delta.
func windowRate(ring []sloSnapshot, route string, window time.Duration) float64 {
	latest := ring[len(ring)-1]
	base := sloSnapshot{} // zero: route unseen before the window
	cutoff := latest.at.Add(-window)
	for _, snap := range ring[:len(ring)-1] {
		if !snap.at.Before(cutoff) {
			base = snap
			break
		}
	}
	cur := latest.routes[route]
	prev := base.routes[route]
	dTotal := cur.total - prev.total
	if dTotal <= 0 {
		return 0
	}
	dErr := cur.errors - prev.errors
	if dErr < 0 {
		dErr = 0
	}
	return dErr / dTotal
}

// Report computes burn rates from the retained snapshots. Routes are
// sorted for stable output.
func (s *SLO) Report() SLOReport {
	s.mu.Lock()
	ring := append([]sloSnapshot(nil), s.ring...)
	s.mu.Unlock()
	rep := SLOReport{
		Metric: s.metric, Objective: s.objective,
		FastWindow: s.fast.String(), SlowWindow: s.slow.String(),
		Routes: []RouteBurn{},
	}
	if len(ring) == 0 {
		rep.At = s.clk.Now()
		return rep
	}
	latest := ring[len(ring)-1]
	rep.At = latest.at
	budget := 1 - s.objective
	names := make([]string, 0, len(latest.routes))
	for name := range latest.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rc := latest.routes[name]
		fastRate := windowRate(ring, name, s.fast)
		slowRate := windowRate(ring, name, s.slow)
		rep.Routes = append(rep.Routes, RouteBurn{
			Route:    name,
			Requests: rc.total, Errors: rc.errors,
			FastErrorRate: fastRate, SlowErrorRate: slowRate,
			FastBurn: fastRate / budget, SlowBurn: slowRate / budget,
		})
	}
	return rep
}

// Handler serves the report as JSON, taking a fresh sample per scrape so
// the endpoint is useful without a background sampler. Mounted as
// GET /debug/slo.
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Sample()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Report())
	})
}
