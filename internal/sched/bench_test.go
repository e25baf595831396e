package sched

import (
	"fmt"
	"testing"
	"time"

	"sensorcal/internal/trust"
)

// BenchmarkPlanner exercises a realistic control-plane load: a week of
// hourly traffic history and a 200-node fleet planned over a 24 h
// horizon. CI uploads the result as an artifact so planner regressions
// show up in review.
func BenchmarkPlanner(b *testing.B) {
	f := NewForecaster()
	day := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 7*24; h++ {
		at := day.Add(time.Duration(h) * time.Hour)
		n := 5 + (h%24)*2 // diurnal ramp
		bearings := make([]float64, n)
		for i := range bearings {
			bearings[i] = float64((i * 53) % 360)
		}
		f.Observe("rooftop", at, testCenter, flightsAt(testCenter, bearings...))
	}

	now := day.Add(7 * 24 * time.Hour)
	nodes := make([]NodeState, 200)
	for i := range nodes {
		nodes[i] = NodeState{
			Node:       trust.NodeID(fmt.Sprintf("node-%03d", i)),
			Site:       "rooftop",
			LastReport: now.Add(-time.Duration(i%48) * time.Hour),
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks, err := Plan(f, nodes, PlanConfig{Now: now})
		if err != nil {
			b.Fatal(err)
		}
		if len(tasks) == 0 {
			b.Fatal("planner produced no tasks")
		}
	}
}
