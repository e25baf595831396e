// Package sched is the fleet control plane the paper's §5 names but does
// not build: "measurement scheduling from flight density". Instead of
// every node free-running its 30 s directional campaign at fixed spacing
// — blind to whether any aircraft are overhead or whether its calibration
// is already fresh — a central scheduler decides what the fleet measures
// and when, the way Electrosense's backend coordinated thousands of IoT
// receivers and RadioHound's coordinator drove its sub-6 GHz scans.
//
// Three pieces compose the subsystem:
//
//   - Forecaster: folds fr24/flightsim traffic snapshots into a per-site
//     sliding-window histogram (hour-of-day × 30° bearing sector) and
//     exports it as a calib.TrafficForecast.
//   - Plan: turns fleet state (trust evidence age, calibration report
//     staleness, per-node duty budget) plus the forecast into prioritized
//     measurement tasks. calib.PlanMeasurements, the picker a
//     free-running agent uses, chooses each node's windows; Plan orders
//     them so the stalest nodes' high-yield windows dispatch first.
//   - Queue: a one-lock lease-based work queue with deadlines,
//     requeue-on-expiry and idempotent completion, served over HTTP by
//     cmd/schedd and consumed by agents through Client (retry + breaker).
//
// Execution is at-least-once (an expired lease requeues the task);
// completion is exactly-once (duplicate and stale-token completions are
// detected and never double-count).
package sched

import (
	"fmt"
	"strconv"
	"time"

	"sensorcal/internal/trust"
)

// Task is one scheduled measurement window for one node.
type Task struct {
	// ID is deterministic (node + window start), so re-planning the same
	// horizon enqueues each task at most once.
	ID string `json:"id"`
	// Node is the agent the task is pinned to.
	Node trust.NodeID `json:"node"`
	// Site names the installation whose forecast produced the window.
	Site string `json:"site"`
	// Start and Duration bound the measurement window (paper: 30 s).
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	// Runs is how many directional repetitions the window should hold
	// (usually 1; campaigns repeat per the paper's §3.1 procedure).
	Runs int `json:"runs"`
	// ExpectedAircraft is the forecast yield that justified the window.
	ExpectedAircraft float64 `json:"expected_aircraft"`
	// Priority is the planner's objective value: staleness × yield.
	// Higher runs sooner.
	Priority float64 `json:"priority"`
	// NotAfter expires the task outright: a measurement window that went
	// unexecuted this long past its start is worthless (the traffic it
	// targeted is gone) and is dropped instead of requeued.
	NotAfter time.Time `json:"not_after"`
}

// TaskID derives the deterministic task identity for a node and window
// start.
func TaskID(node trust.NodeID, start time.Time) string {
	return string(node) + "@" + strconv.FormatInt(start.UTC().Unix(), 36)
}

// Validate rejects tasks the queue cannot manage.
func (t Task) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("sched: task needs an ID")
	}
	if t.Node == "" {
		return fmt.Errorf("sched: task %s needs a node", t.ID)
	}
	if t.Start.IsZero() {
		return fmt.Errorf("sched: task %s needs a start time", t.ID)
	}
	if t.Duration <= 0 {
		return fmt.Errorf("sched: task %s needs a positive duration", t.ID)
	}
	return nil
}

// NodeState is what the planner knows about one fleet member. Zero times
// mean "never": a node that has never delivered a reading or a report is
// maximally stale and schedules first, which is exactly the bootstrapping
// behaviour a fresh fleet wants.
type NodeState struct {
	Node trust.NodeID
	// Site selects the forecast histogram.
	Site string
	// Trust is the consensus ledger score (informational; the planner
	// schedules untrusted nodes too — measurements are how they earn
	// trust back).
	Trust trust.Score
	// LastReading is when the collector last saw consensus evidence from
	// the node (the trust-ledger staleness signal).
	LastReading time.Time
	// LastReport is when the node last generated a calibration report.
	LastReport time.Time
	// DutyBudget bounds the measurement time the planner may assign the
	// node per horizon. Zero means unlimited.
	DutyBudget time.Duration
	// Covered marks 30° sectors the node already measured confidently;
	// windows whose traffic concentrates there are discounted.
	Covered [12]bool
}
