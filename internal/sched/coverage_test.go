package sched

import (
	"testing"
	"time"

	"sensorcal/internal/calib"
	"sensorcal/internal/flightsim"
	"sensorcal/internal/fr24"
)

// trafficAt spawns the deterministic population for one instant of the
// typical diurnal airport pattern and returns what a ground-truth query
// reports — the same simulation schedd's fallback path observes.
func trafficAt(t *testing.T, at time.Time, seed int64) []fr24.Flight {
	t.Helper()
	density := calib.TypicalAirportForecast().HourlyDensity[at.Hour()]
	fleet, err := flightsim.NewFleet(at, flightsim.Config{
		Center: testCenter,
		Radius: 100_000,
		Count:  int(density),
		Seed:   seed ^ at.Unix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	flights, err := fr24.NewService(fleet).Query(at, testCenter, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	return flights
}

// TestScheduledBeatsFreeRunningCoverage is the subsystem's reason to
// exist: a fleet that measures when the forecaster says traffic is
// dense observes at least as many aircraft as a free-running node
// measuring on a fixed cadence — using fewer measurement windows.
func TestScheduledBeatsFreeRunningCoverage(t *testing.T) {
	const seed = 7
	day1 := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	day2 := day1.Add(24 * time.Hour)

	// Day 1: the scheduler observes one traffic snapshot per hour and
	// learns the diurnal density.
	f := NewForecaster()
	for h := 0; h < 24; h++ {
		at := day1.Add(time.Duration(h) * time.Hour)
		f.Observe("rooftop", at, testCenter, trafficAt(t, at, seed))
	}

	// Day 2, free-running baseline: 8 windows at fixed 3 h spacing,
	// blind to traffic (what agentd's RunDay cadence amounts to with a
	// flat forecast).
	freeWindows := 0
	freeCoverage := 0
	for h := 0; h < 24; h += 3 {
		at := day2.Add(time.Duration(h) * time.Hour)
		freeCoverage += len(trafficAt(t, at, seed))
		freeWindows++
	}

	// Day 2, scheduled: the planner gets fewer windows to spend and
	// places them in the forecast's densest hours.
	tasks, err := Plan(f, []NodeState{{Node: "n1", Site: "rooftop"}}, PlanConfig{
		Now:             day2,
		MaxTasksPerNode: freeWindows - 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	schedCoverage := 0
	for _, task := range tasks {
		schedCoverage += len(trafficAt(t, task.Start, seed))
	}

	t.Logf("free-running: %d aircraft across %d windows; scheduled: %d aircraft across %d windows",
		freeCoverage, freeWindows, schedCoverage, len(tasks))
	if len(tasks) >= freeWindows {
		t.Fatalf("scheduled fleet used %d windows, free baseline %d — must be fewer", len(tasks), freeWindows)
	}
	if schedCoverage < freeCoverage {
		t.Fatalf("scheduled coverage %d < free-running %d despite density awareness", schedCoverage, freeCoverage)
	}
}
