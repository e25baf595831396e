package sched

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sensorcal/internal/fr24"
	"sensorcal/internal/geo"
)

var testCenter = geo.Point{Lat: 46.95, Lon: 7.44}

// flightsAt fabricates one ground-truth snapshot with an aircraft at
// each given bearing, 30 km out.
func flightsAt(center geo.Point, bearings ...float64) []fr24.Flight {
	var out []fr24.Flight
	for i, b := range bearings {
		p := geo.Destination(center, b, 30_000)
		out = append(out, fr24.Flight{
			ICAO: fmt.Sprintf("AC%04d", i),
			Lat:  p.Lat, Lon: p.Lon, AltM: 10_000,
		})
	}
	return out
}

func TestForecasterHourHistogram(t *testing.T) {
	f := NewForecaster()
	day := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	// Three mornings with four aircraft each, all due east.
	for d := 0; d < 3; d++ {
		at := day.Add(time.Duration(d) * 24 * time.Hour)
		f.Observe("rooftop", at, testCenter, flightsAt(testCenter, 88, 89, 91, 92))
	}

	tf := f.TrafficForecast("rooftop")
	if math.Abs(tf.HourlyDensity[8]-4) > 1e-9 {
		t.Fatalf("HourlyDensity[8] = %v, want 4", tf.HourlyDensity[8])
	}
	// 88–92° all land in sector 2 or 3 (60–90°, 90–120°); the expected
	// count must be on the eastern sectors and nowhere else.
	var east, rest float64
	for b, c := range tf.SectorBias[8] {
		if b == 2 || b == 3 {
			east += c
		} else {
			rest += c
		}
	}
	if math.Abs(east-4) > 1e-9 || rest != 0 {
		t.Fatalf("sector split east=%v rest=%v, want 4/0 (%v)", east, rest, tf.SectorBias[8])
	}
}

func TestForecasterFallbacks(t *testing.T) {
	f := NewForecaster()
	at := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	f.Observe("rooftop", at, testCenter, flightsAt(testCenter, 10, 20, 40, 50))
	f.Observe("rooftop", at.Add(time.Hour), testCenter, flightsAt(testCenter, 190, 200))

	// An hour with no history gets the site-wide mean and sector split.
	tf := f.TrafficForecast("rooftop")
	if math.Abs(tf.HourlyDensity[13]-3) > 1e-9 {
		t.Fatalf("site-mean fallback = %v, want 3", tf.HourlyDensity[13])
	}
	var sum float64
	for _, c := range tf.SectorBias[13] {
		sum += c
	}
	if math.Abs(sum-3) > 1e-9 || tf.SectorBias[13][0] != 1 || tf.SectorBias[13][6] != 1 {
		t.Fatalf("fallback sectors = %v, want the site-wide mean split", tf.SectorBias[13])
	}

	// An unknown site forecasts an empty sky.
	if tf := f.TrafficForecast("basement"); tf.HourlyDensity != [24]float64{} || tf.SectorBias != nil {
		t.Fatalf("unknown site: %+v, want an empty forecast", tf)
	}
}

func TestForecasterSlidingWindowEviction(t *testing.T) {
	f := NewForecaster()
	at := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	f.Observe("rooftop", at, testCenter, flightsAt(testCenter, 90, 90, 90, 90, 90, 90, 90, 90))
	// Ten days later one quiet snapshot arrives; the busy one slides out
	// of the seven-day window.
	f.Observe("rooftop", at.Add(10*24*time.Hour), testCenter, flightsAt(testCenter, 90))

	if n := f.Samples("rooftop"); n != 1 {
		t.Fatalf("Samples = %d after eviction, want 1", n)
	}
	if d := f.TrafficForecast("rooftop").HourlyDensity[8]; math.Abs(d-1) > 1e-9 {
		t.Fatalf("post-eviction forecast = %v, want 1 (old sample must not linger)", d)
	}
}

func TestForecasterTrafficForecastBridge(t *testing.T) {
	f := NewForecaster()
	at := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	f.Observe("rooftop", at, testCenter, flightsAt(testCenter, 90, 90, 270))

	tf := f.TrafficForecast("rooftop")
	if math.Abs(tf.HourlyDensity[8]-3) > 1e-9 {
		t.Fatalf("HourlyDensity[8] = %v, want 3", tf.HourlyDensity[8])
	}
	bias, ok := tf.SectorBias[8]
	if !ok {
		t.Fatalf("hour 8 should carry sector weights")
	}
	var sum float64
	for _, b := range bias {
		sum += b
	}
	if math.Abs(sum-tf.HourlyDensity[8]) > 1e-9 {
		t.Fatalf("sector weights must sum to the hour's density, got %v", sum)
	}
}
