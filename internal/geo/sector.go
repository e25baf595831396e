package geo

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sector is an azimuth wedge [From, To) in compass degrees. A sector may
// wrap through north: Sector{From: 350, To: 20} covers 30°.
type Sector struct {
	From float64 // degrees, inclusive
	To   float64 // degrees, exclusive
}

func (s Sector) String() string {
	return fmt.Sprintf("[%03.0f°,%03.0f°)", NormalizeBearing(s.From), NormalizeBearing(s.To))
}

// Width returns the angular width of the sector in degrees, in (0, 360].
// A sector with From == To is interpreted as the full circle.
func (s Sector) Width() float64 {
	w := NormalizeBearing(s.To) - NormalizeBearing(s.From)
	if w <= 0 {
		w += 360
	}
	return w
}

// Contains reports whether bearing deg falls inside the sector.
func (s Sector) Contains(deg float64) bool {
	d := NormalizeBearing(deg)
	from := NormalizeBearing(s.From)
	to := NormalizeBearing(s.To)
	if from < to {
		return d >= from && d < to
	}
	// Wraps through north.
	return d >= from || d < to
}

// Midpoint returns the central bearing of the sector.
func (s Sector) Midpoint() float64 {
	return NormalizeBearing(NormalizeBearing(s.From) + s.Width()/2)
}

// SectorSet is a union of azimuth sectors, used to describe a field of view.
type SectorSet []Sector

// Contains reports whether any sector in the set covers the bearing.
func (ss SectorSet) Contains(deg float64) bool {
	for _, s := range ss {
		if s.Contains(deg) {
			return true
		}
	}
	return false
}

// Coverage returns the total angular coverage in degrees, counting overlaps
// once, in [0, 360].
func (ss SectorSet) Coverage() float64 {
	if len(ss) == 0 {
		return 0
	}
	// Flatten into non-wrapping intervals on [0,360).
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, s := range ss {
		from := NormalizeBearing(s.From)
		w := s.Width()
		if from+w <= 360 {
			ivs = append(ivs, iv{from, from + w})
		} else {
			ivs = append(ivs, iv{from, 360}, iv{0, from + w - 360})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, -1.0
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	if total > 360 {
		total = 360
	}
	return total
}

func (ss SectorSet) String() string {
	if len(ss) == 0 {
		return "(none)"
	}
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = s.String()
	}
	return strings.Join(parts, "∪")
}

// Histogram accumulates observations into equal-width azimuth bins; the
// directional evaluator uses it to summarize where messages were and were
// not received.
type Histogram struct {
	bins   int
	counts []float64
}

// NewHistogram returns a histogram with the given number of azimuth bins.
// bins must be a divisor-friendly positive count; 36 (10° bins) is typical.
func NewHistogram(bins int) *Histogram {
	if bins <= 0 {
		panic("geo: histogram needs a positive bin count")
	}
	return &Histogram{bins: bins, counts: make([]float64, bins)}
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return h.bins }

// BinWidth returns the width of each bin in degrees.
func (h *Histogram) BinWidth() float64 { return 360 / float64(h.bins) }

// BinFor returns the bin index covering the bearing.
func (h *Histogram) BinFor(deg float64) int {
	i := int(NormalizeBearing(deg) / h.BinWidth())
	if i >= h.bins { // deg == 360-ε rounding
		i = h.bins - 1
	}
	return i
}

// Add accumulates weight w at the bearing.
func (h *Histogram) Add(deg, w float64) { h.counts[h.BinFor(deg)] += w }

// Count returns the accumulated weight in bin i.
func (h *Histogram) Count(i int) float64 { return h.counts[i] }

// Max returns the largest bin weight.
func (h *Histogram) Max() float64 {
	m := 0.0
	for _, c := range h.counts {
		m = math.Max(m, c)
	}
	return m
}

// OccupiedSectors merges adjacent bins whose weight is at least threshold
// into a SectorSet — the basic field-of-view extraction primitive.
func (h *Histogram) OccupiedSectors(threshold float64) SectorSet {
	occ := make([]bool, h.bins)
	any, all := false, true
	for i, c := range h.counts {
		occ[i] = c >= threshold
		any = any || occ[i]
		all = all && occ[i]
	}
	if !any {
		return nil
	}
	if all {
		return SectorSet{{From: 0, To: 360}}
	}
	// Find a vacant bin to start from so wrap-around runs merge cleanly.
	start := 0
	for i, o := range occ {
		if !o {
			start = i
			break
		}
	}
	var set SectorSet
	w := h.BinWidth()
	runStart := -1
	for k := 0; k <= h.bins; k++ {
		i := (start + k) % h.bins
		if k < h.bins && occ[i] {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if runStart >= 0 {
			runLen := k - indexOffset(start, runStart, h.bins)
			from := float64(runStart) * w
			to := NormalizeBearing(from + float64(runLen)*w)
			set = append(set, Sector{From: from, To: to})
			runStart = -1
		}
	}
	return set
}

func indexOffset(start, idx, n int) int {
	d := idx - start
	if d < 0 {
		d += n
	}
	return d
}
