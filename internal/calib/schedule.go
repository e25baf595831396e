package calib

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The paper's §5: "An end-to-end system must decide when to perform ADS-B
// measurements to gain as much information as possible, as flight
// schedules vary over time." The scheduler below does exactly that: given
// a traffic forecast (flights per hour, by hour of day and optionally by
// sector), it picks measurement windows that maximize expected directional
// information, preferring hours that light up sectors not yet covered.

// TrafficForecast predicts expected aircraft counts.
type TrafficForecast struct {
	// HourlyDensity[h] is the expected number of distinct aircraft within
	// range during hour h (0–23, local time).
	HourlyDensity [24]float64
	// SectorBias optionally skews traffic toward certain bearings per
	// hour: SectorBias[h][b] weighs hour-h traffic in 30° sector b (12
	// sectors), and sector b's share is its weight over the hour's sum —
	// fractions and expected counts both work. An hour without weights
	// (or whose weights sum to zero) is uniform.
	SectorBias map[int][12]float64
}

// TypicalAirportForecast returns a plausible diurnal pattern: quiet
// overnight, morning and evening banks.
func TypicalAirportForecast() TrafficForecast {
	var f TrafficForecast
	for h := 0; h < 24; h++ {
		switch {
		case h >= 1 && h <= 4:
			f.HourlyDensity[h] = 3
		case h >= 6 && h <= 9:
			f.HourlyDensity[h] = 35
		case h >= 10 && h <= 15:
			f.HourlyDensity[h] = 25
		case h >= 16 && h <= 20:
			f.HourlyDensity[h] = 38
		default:
			f.HourlyDensity[h] = 12
		}
	}
	return f
}

// MeasurementWindow is a scheduled capture.
type MeasurementWindow struct {
	Start    time.Time
	Duration time.Duration
	// ExpectedAircraft is the forecast traffic during the window.
	ExpectedAircraft float64
	// InfoGain is the scheduler's objective value for this pick.
	InfoGain float64
}

// ScheduleConfig controls the planner.
type ScheduleConfig struct {
	Forecast TrafficForecast
	// From is the planning horizon start; windows are chosen within
	// [From, From+Horizon).
	From    time.Time
	Horizon time.Duration
	// Windows is how many measurement windows to pick.
	Windows int
	// WindowLength is each capture's duration (paper: 30 s).
	WindowLength time.Duration
	// CoveredSectors marks 30° sectors already confidently measured; the
	// scheduler discounts hours whose traffic concentrates there.
	CoveredSectors [12]bool
}

// PlanMeasurements picks measurement windows greedily by expected
// information gain: traffic volume, discounted for already-covered
// sectors, with diminishing returns for repeatedly measuring the same
// hour of day.
func PlanMeasurements(cfg ScheduleConfig) ([]MeasurementWindow, error) {
	if cfg.Windows <= 0 {
		return nil, fmt.Errorf("calib: need a positive window count")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("calib: need a positive horizon")
	}
	if cfg.WindowLength <= 0 {
		cfg.WindowLength = 30 * time.Second
	}
	type slot struct {
		start time.Time
		hour  int
	}
	var slots []slot
	for t := cfg.From.Truncate(time.Hour); t.Before(cfg.From.Add(cfg.Horizon)); t = t.Add(time.Hour) {
		if t.Before(cfg.From) {
			continue
		}
		slots = append(slots, slot{start: t, hour: t.Hour()})
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("calib: horizon contains no full hours")
	}
	picksPerHour := make(map[int]int)
	var out []MeasurementWindow
	for len(out) < cfg.Windows {
		best := -1
		bestGain := math.Inf(-1)
		for i, s := range slots {
			// Discount the share of traffic in already-covered sectors.
			// Without sector weights the covered sectors count as a
			// twelfth each.
			var covered, total float64
			for b, w := range cfg.Forecast.SectorBias[s.hour] {
				total += w
				if cfg.CoveredSectors[b] {
					covered += w
				}
			}
			if total <= 0 {
				covered, total = 0, 12
				for _, c := range cfg.CoveredSectors {
					if c {
						covered++
					}
				}
			}
			gain := cfg.Forecast.HourlyDensity[s.hour] * (1 - 0.8*covered/total)
			// Diminishing returns for the same hour of day.
			gain /= float64(1 + picksPerHour[s.hour]*picksPerHour[s.hour])
			if gain > bestGain {
				bestGain, best = gain, i
			}
		}
		s := slots[best]
		picksPerHour[s.hour]++
		out = append(out, MeasurementWindow{
			Start:            s.start,
			Duration:         cfg.WindowLength,
			ExpectedAircraft: cfg.Forecast.HourlyDensity[s.hour],
			InfoGain:         bestGain,
		})
		// Remove the chosen slot so each wall-clock hour is used once.
		slots = append(slots[:best], slots[best+1:]...)
		if len(slots) == 0 {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, nil
}
