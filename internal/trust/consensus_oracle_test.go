package trust

import (
	"fmt"
	"math"
	"sort"
)

// The consensus checks as they were before the incremental close: every
// call recomputes from the epochs it is given, with a fresh sort per node
// per epoch. Kept verbatim as the reference the differential tests and
// FuzzCorrelationIncremental compare Detector's methods against.

func oracleCheckEpoch(d *Detector, e Epoch) []Anomaly {
	if len(e.Readings) < 3 {
		return nil // no meaningful consensus
	}
	var out []Anomaly
	for id, v := range e.Readings {
		maxOther := math.Inf(-1)
		for other, ov := range e.Readings {
			if other != id && ov > maxOther {
				maxOther = ov
			}
		}
		bound := maxOther + d.UpperBoundMarginDB
		if v > bound {
			excess := v - bound
			out = append(out, Anomaly{
				Node:     id,
				SignalID: e.SignalID,
				Kind:     "over-consensus-power",
				Detail:   fmt.Sprintf("reported %.1f dBm, peers' maximum %.1f dBm", v, maxOther),
				Severity: math.Min(1, excess/10),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func oracleCheckCorrelation(d *Detector, epochs []Epoch) []Anomaly {
	if len(epochs) < d.MinEpochs {
		return nil
	}
	// Per-node series, plus the set of participating nodes.
	perNode := map[NodeID][]float64{}
	for i, e := range epochs {
		for id, v := range e.Readings {
			series, ok := perNode[id]
			if !ok {
				series = make([]float64, len(epochs))
				for k := range series {
					series[k] = math.NaN()
				}
			}
			series[i] = v
			perNode[id] = series
		}
	}
	// Leave-one-out consensus: when scoring node X, the reference median
	// excludes X's own readings so a fabricator cannot drag the consensus
	// toward itself.
	looConsensus := func(exclude NodeID) []float64 {
		out := make([]float64, len(epochs))
		for i, e := range epochs {
			vals := make([]float64, 0, len(e.Readings))
			for id, v := range e.Readings {
				if id == exclude {
					continue
				}
				vals = append(vals, v)
			}
			out[i] = oracleMedian(vals)
		}
		return out
	}
	var out []Anomaly
	ids := make([]NodeID, 0, len(perNode))
	for id := range perNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		series := perNode[id]
		r, n := oraclePearson(series, looConsensus(id))
		if n < d.MinEpochs {
			continue
		}
		if r < d.MinCorrelation {
			// Zero or negative correlation is a hard fabrication signal;
			// just-under-threshold correlation is weak evidence.
			sev := (d.MinCorrelation - r) / d.MinCorrelation
			if sev > 1 {
				sev = 1
			}
			if sev < 0.25 {
				sev = 0.25
			}
			out = append(out, Anomaly{
				Node:     id,
				SignalID: epochs[0].SignalID,
				Kind:     "uncorrelated-with-consensus",
				Detail:   fmt.Sprintf("correlation %.2f over %d epochs", r, n),
				Severity: sev,
			})
		}
	}
	return out
}

// oraclePearson computes the correlation of two series, skipping NaN
// entries in a. It returns the coefficient and the number of points used.
func oraclePearson(a, b []float64) (float64, int) {
	var sa, sb, saa, sbb, sab float64
	n := 0
	for i := range a {
		if math.IsNaN(a[i]) {
			continue
		}
		n++
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	if n < 2 {
		return 0, n
	}
	fn := float64(n)
	cov := sab/fn - sa/fn*sb/fn
	va := saa/fn - sa/fn*sa/fn
	vb := sbb/fn - sb/fn*sb/fn
	if va <= 1e-12 || vb <= 1e-12 {
		// A perfectly flat series carries no information; treat as
		// uncorrelated (fabricators often submit constants).
		return 0, n
	}
	return cov / math.Sqrt(va*vb), n
}

// oracleMedian is the median half of the old mad helper, whose deviation
// half CheckCorrelation never used: 0 for no values, the mean of the
// middle two for an even count.
func oracleMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	median := s[len(s)/2]
	if len(s)%2 == 0 {
		median = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return median
}
