package trust

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Reading is one node's measurement of a shared reference signal (a TV
// channel or cellular carrier every node in the area can hear).
type Reading struct {
	Node     NodeID
	SignalID string // e.g. "tv-521MHz"
	PowerDBm float64
	At       time.Time
	// Key is an optional idempotency key. A reading whose key was already
	// accepted is silently dropped, so a client retrying over a lossy
	// link (the response was lost, not the request) cannot double-count
	// consensus evidence. Empty means no deduplication.
	Key string
	// Trace is the W3C traceparent of the measurement that produced the
	// reading. It travels with the reading through the store-and-forward
	// spool, so even a batch replayed hours after a collector outage still
	// links each reading back to its originating agent trace. Empty means
	// untraced.
	Trace string
}

// Epoch groups simultaneous readings of one signal across nodes.
type Epoch struct {
	SignalID string
	At       time.Time
	Readings map[NodeID]float64 // node → reported dBm
}

// Anomaly is a consensus violation.
type Anomaly struct {
	Node     NodeID
	SignalID string
	Kind     string
	Detail   string
	// Severity in [0,1]: 1 is a flagrant violation.
	Severity float64
}

func (a Anomaly) String() string {
	return fmt.Sprintf("%s/%s %s: %s (severity %.2f)", a.Node, a.SignalID, a.Kind, a.Detail, a.Severity)
}

// Detector runs the consensus checks.
type Detector struct {
	// UpperBoundMarginDB: a node may read at most this much above the
	// neighborhood's maximum plausible (median + spread) power.
	// Obstructions attenuate; nothing in a passive deployment amplifies.
	UpperBoundMarginDB float64
	// MinCorrelation: across epochs an honest node's readings must
	// correlate with the consensus trend at least this much.
	MinCorrelation float64
	// MinEpochs before the correlation test applies.
	MinEpochs int
}

// NewDetector returns a detector with defaults tuned for ±2 dB honest
// measurement noise.
func NewDetector() *Detector {
	return &Detector{
		UpperBoundMarginDB: 6,
		MinCorrelation:     0.3,
		MinEpochs:          8,
	}
}

// CheckEpoch applies the upper-bound test to one epoch. The test is
// one-sided by design: obstructions only attenuate, so an honest node can
// read arbitrarily low but never meaningfully above its peers. Each node
// is therefore compared against the maximum of the *other* nodes'
// readings (leave-one-out, so a fabricator cannot raise its own bound)
// plus a noise margin. A symmetric median±MAD bound would not work here:
// legitimate indoor nodes stretch the MAD downward, inflating the upward
// tolerance exactly where fraud hides.
func (d *Detector) CheckEpoch(e Epoch) []Anomaly {
	if len(e.Readings) < 3 {
		return nil // no meaningful consensus
	}
	// The two largest readings answer every node's leave-one-out maximum:
	// the runner-up for a node that holds the maximum, the maximum for
	// everyone else (a tie at the top makes the two equal).
	top, second := math.Inf(-1), math.Inf(-1)
	for _, v := range e.Readings {
		if v > top {
			top, second = v, top
		} else if v > second {
			second = v
		}
	}
	var out []Anomaly
	for id, v := range e.Readings {
		maxOther := top
		if v == top {
			maxOther = second
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

// CheckCorrelation applies the temporal test over a series of epochs of
// the same signal: the consensus (median) power fluctuates with the real
// transmitter and propagation conditions, and every honest node's series
// tracks those fluctuations up to an additive offset. A fabricated series
// doesn't know the fluctuations and decorrelates.
//
// This is the stateless form: a fresh corrState folded over every epoch.
// The collector keeps one corrState per signal and folds each closed epoch
// into it once.
func (d *Detector) CheckCorrelation(epochs []Epoch) []Anomaly {
	var cs corrState
	return cs.check(d, epochs)
}

// corrSums are one node's running Pearson sums against its leave-one-out
// consensus: a is the node's reading, b the median of everyone else's in
// the same epoch.
type corrSums struct {
	n                     int
	sa, sb, saa, sbb, sab float64
}

// corrState is the correlation check's memory of one signal: the sums of
// every node over epochs[:folded]. It is a pure cache of that prefix —
// sums accumulate in epoch order, exactly as a recomputation from the
// first epoch would — so dropping it loses nothing but time.
type corrState struct {
	folded int
	sums   map[NodeID]*corrSums
	ids    []NodeID    // keys of sums, ascending: the report order
	ranked []nodeValue // fold's scratch
}

type nodeValue struct {
	id NodeID
	v  float64
}

// check folds the epochs not yet folded and reports every node whose
// series has decorrelated from its leave-one-out consensus.
func (cs *corrState) check(d *Detector, epochs []Epoch) []Anomaly {
	for ; cs.folded < len(epochs); cs.folded++ {
		cs.fold(epochs[cs.folded])
	}
	if len(epochs) < d.MinEpochs {
		return nil
	}
	var out []Anomaly
	for _, id := range cs.ids {
		r, n := cs.sums[id].pearson()
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

// fold adds one epoch to every participant's sums, from one sort of the
// epoch by value.
func (cs *corrState) fold(e Epoch) {
	if cs.sums == nil {
		cs.sums = make(map[NodeID]*corrSums)
	}
	ranked := cs.ranked[:0]
	for id, v := range e.Readings {
		ranked = append(ranked, nodeValue{id, v})
	}
	// NaN sorts first, as in sort.Float64s.
	slices.SortFunc(ranked, func(x, y nodeValue) int { return cmp.Compare(x.v, y.v) })
	cs.ranked = ranked
	for i, nv := range ranked {
		s := cs.sums[nv.id]
		if s == nil {
			s = new(corrSums)
			cs.sums[nv.id] = s
			at, _ := slices.BinarySearch(cs.ids, nv.id)
			cs.ids = slices.Insert(cs.ids, at, nv.id)
		}
		if math.IsNaN(nv.v) {
			continue // not a point of this node's series
		}
		s.add(nv.v, looMedian(ranked, i))
	}
}

// looMedian is the reference a node is correlated against: the median of
// an epoch's readings without the node's own (leave-one-out, so a
// fabricator cannot drag the consensus toward itself), 0 when it is
// alone. ranked is sorted by value and skip is the node's rank; taking
// that reading out moves every later rank down by one.
func looMedian(ranked []nodeValue, skip int) float64 {
	n := len(ranked) - 1
	if n == 0 {
		return 0
	}
	at := func(rank int) float64 {
		if rank >= skip {
			rank++
		}
		return ranked[rank].v
	}
	if n%2 == 1 {
		return at(n / 2)
	}
	return (at(n/2-1) + at(n/2)) / 2
}

// add appends one point (a, b) to the summed series.
func (s *corrSums) add(a, b float64) {
	s.n++
	s.sa += a
	s.sb += b
	s.saa += a * a
	s.sbb += b * b
	s.sab += a * b
}

// pearson returns the correlation coefficient of the summed series and
// the number of points in it.
func (s *corrSums) pearson() (float64, int) {
	if s.n < 2 {
		return 0, s.n
	}
	fn := float64(s.n)
	cov := s.sab/fn - s.sa/fn*s.sb/fn
	va := s.saa/fn - s.sa/fn*s.sa/fn
	vb := s.sbb/fn - s.sb/fn*s.sb/fn
	if va <= 1e-12 || vb <= 1e-12 {
		// A perfectly flat series carries no information; treat as
		// uncorrelated (fabricators often submit constants).
		return 0, s.n
	}
	return cov / math.Sqrt(va*vb), s.n
}

// Apply folds anomalies into the ledger: each flagged node records a
// verdict scaled by severity; unflagged participants of the epochs record
// a clean verdict.
func Apply(l *Ledger, participants []NodeID, anomalies []Anomaly) {
	var flagged map[NodeID]float64 // nil, which reads as 0, for a clean epoch
	if len(anomalies) > 0 {
		flagged = make(map[NodeID]float64, len(anomalies))
	}
	for _, a := range anomalies {
		if a.Severity > flagged[a.Node] {
			flagged[a.Node] = a.Severity
		}
	}
	for _, id := range participants {
		l.Record(id, 1-flagged[id])
	}
}
