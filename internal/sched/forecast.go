package sched

import (
	"sync"
	"time"

	"sensorcal/internal/calib"
	"sensorcal/internal/fr24"
	"sensorcal/internal/geo"
)

// retain is the forecaster's sliding window: snapshots older than this
// (relative to the newest snapshot per site) are evicted. Seven days is
// long enough to see every hour of the weekly schedule several times,
// short enough to track seasonal timetable changes.
const retain = 7 * 24 * time.Hour

// Forecaster folds traffic snapshots into per-site sliding-window
// histograms keyed by hour of day and 30° bearing sector, and exports
// them as the calib.TrafficForecast the window picker plans on. It is
// safe for concurrent use: schedd's plan loop observes while the HTTP
// handlers read.
type Forecaster struct {
	mu    sync.Mutex
	sites map[string]*siteHistogram
}

// siteHistogram is one site's sliding window of snapshots plus running
// per-hour aggregates, so an export reads 24 × 12 sums instead of
// rescanning samples.
type siteHistogram struct {
	samples []snapshot
	newest  time.Time

	hourN      [24]int
	hourSum    [24]float64
	sectorSum  [24][12]float64
	totalN     int
	totalSum   float64
	sectorsAll [12]float64
}

// snapshot is one observed traffic sample.
type snapshot struct {
	at      time.Time
	hour    int
	total   float64
	sectors [12]float64
}

// NewForecaster returns an empty forecaster.
func NewForecaster() *Forecaster {
	return &Forecaster{sites: make(map[string]*siteHistogram)}
}

// Observe folds one traffic snapshot — the aircraft a ground-truth query
// (fr24 live, fr24d, or a flightsim fleet behind fr24.NewService)
// reported near center at time at — into the site's histogram.
func (f *Forecaster) Observe(site string, at time.Time, center geo.Point, flights []fr24.Flight) {
	s := snapshot{at: at, hour: at.Hour()}
	for _, fl := range flights {
		s.total++
		b := int(geo.NormalizeBearing(fl.BearingFrom(center))/30) % 12
		s.sectors[b]++
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.sites[site]
	if !ok {
		h = &siteHistogram{}
		f.sites[site] = h
	}
	h.add(s)
	h.evict()
}

func (h *siteHistogram) add(s snapshot) {
	h.samples = append(h.samples, s)
	if s.at.After(h.newest) {
		h.newest = s.at
	}
	h.hourN[s.hour]++
	h.hourSum[s.hour] += s.total
	h.totalN++
	h.totalSum += s.total
	for b, c := range s.sectors {
		h.sectorSum[s.hour][b] += c
		h.sectorsAll[b] += c
	}
}

// evict drops samples that slid out of the retention window.
func (h *siteHistogram) evict() {
	cutoff := h.newest.Add(-retain)
	keep := h.samples[:0]
	for _, s := range h.samples {
		if s.at.Before(cutoff) {
			h.hourN[s.hour]--
			h.hourSum[s.hour] -= s.total
			h.totalN--
			h.totalSum -= s.total
			for b, c := range s.sectors {
				h.sectorSum[s.hour][b] -= c
				h.sectorsAll[b] -= c
			}
			continue
		}
		keep = append(keep, s)
	}
	h.samples = keep
}

// Samples returns how many snapshots the site's sliding window currently
// holds.
func (f *Forecaster) Samples(site string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.sites[site]
	if !ok {
		return 0
	}
	return len(h.samples)
}

// TrafficForecast exports the site's histogram in calib's forecast shape:
// HourlyDensity[h] is the mean aircraft count of hour h and
// SectorBias[h] its expected count per 30° sector. An hour with no
// history gets the site-wide mean and sector split; an unknown site
// forecasts an empty sky.
func (f *Forecaster) TrafficForecast(site string) calib.TrafficForecast {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out calib.TrafficForecast
	h, ok := f.sites[site]
	if !ok || h.totalN == 0 {
		return out
	}
	out.SectorBias = make(map[int][12]float64, 24)
	for hour := 0; hour < 24; hour++ {
		n, sum, sectors := h.hourN[hour], h.hourSum[hour], h.sectorSum[hour]
		if n == 0 {
			n, sum, sectors = h.totalN, h.totalSum, h.sectorsAll
		}
		out.HourlyDensity[hour] = sum / float64(n)
		var w [12]float64
		for b := range w {
			w[b] = sectors[b] / float64(n)
		}
		out.SectorBias[hour] = w
	}
	return out
}
