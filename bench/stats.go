package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything: with fewer, the figure is one stall.
const minBeyond = 10

// supportedPercentile returns the highest percentile, at most want, that
// still has minBeyond of n samples beyond it. With 20 samples a request
// for p99 degrades to p50; below 2×minBeyond samples it degrades to the
// median too, which is the least noisy figure a small sample has.
func supportedPercentile(n int, want float64) float64 {
	if n < 2*minBeyond {
		return math.Min(want, 50)
	}
	return math.Min(want, 100*(1-float64(minBeyond)/float64(n)))
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sample is one timed operation: when it completed (ns since the timed
// window opened) and how long it took.
type sample struct {
	at  int64
	dur int64
}

// quantileStat is a percentile with the evidence behind it.
type quantileStat struct {
	value   float64 // in the samples' unit (ns)
	pct     float64 // the percentile actually reported
	samples int
	// perSlice is the percentile of each slice, for stall accounting.
	perSlice []float64
}

// sliceQuantile buckets samples into slices of sliceNs by completion
// time, takes the supported percentile inside every slice and reports
// the median over slices. A hypervisor stall then moves one slice, not
// the metric. A slice with less than a tenth of the median slice's
// samples is an edge (the last completions after the deadline) and is
// left out. When no slice holds 2×minBeyond samples the series is sparse
// (one close pass per second) and the percentile rule is applied to the
// whole run instead.
func sliceQuantile(samples []sample, sliceNs int64, want float64) quantileStat {
	st := quantileStat{samples: len(samples)}
	if len(samples) == 0 {
		return st
	}
	bySlice := map[int64][]float64{}
	for _, s := range samples {
		k := s.at / sliceNs
		bySlice[k] = append(bySlice[k], float64(s.dur))
	}
	counts := make([]float64, 0, len(bySlice))
	for _, v := range bySlice {
		counts = append(counts, float64(len(v)))
	}
	floor := math.Max(2*minBeyond, median(counts)/10)
	keys := make([]int64, 0, len(bySlice))
	for k, v := range bySlice {
		if float64(len(v)) >= floor {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		all := durationsOf(samples)
		sort.Float64s(all)
		st.pct = supportedPercentile(len(all), want)
		st.value = percentile(all, st.pct)
		return st
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	st.pct = want
	for _, k := range keys {
		v := bySlice[k]
		sort.Float64s(v)
		p := supportedPercentile(len(v), want)
		if p < st.pct {
			st.pct = p
		}
		st.perSlice = append(st.perSlice, percentile(v, p))
	}
	st.value = median(st.perSlice)
	return st
}

// stallSlices counts slices whose percentile is more than five times the
// median slice: the generator's own report that the box stalled.
func stallSlices(perSlice []float64) int {
	m := median(perSlice)
	n := 0
	for _, v := range perSlice {
		if v > 5*m {
			n++
		}
	}
	return n
}

func durationsOf(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.dur)
	}
	return out
}
