// Package trust implements the crowd-sourced network layer the paper's
// calibration feeds (§1, §2, §5 "Establishing trust"): a registry of
// volunteer-operated sensor nodes, a ledger of per-node trust scores, and
// consensus-based fabrication detection over shared signals of
// opportunity.
//
// The economic setting from the paper: operators are paid for sensing, so
// they have an incentive to submit fabricated or low-quality data. The
// defenses here are (a) the automatic calibration report itself, (b) an
// upper-bound test — obstructions only attenuate, so a node reporting more
// power than the neighborhood consensus supports is lying — and (c) a
// temporal-correlation test: honest nodes track the real fluctuations of
// shared transmitters; fabricated streams do not.
package trust

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sensorcal/internal/hash"
)

// NodeID identifies a registered sensor node.
type NodeID string

// Node is a registry entry.
type Node struct {
	ID       NodeID
	Operator string
	// Lat/Lon of the claimed installation.
	Lat, Lon float64
	// ClaimedOutdoor is the operator's self-reported placement.
	ClaimedOutdoor bool
	// Hardware is the advertised SDR model.
	Hardware string
	// Registered is the enrollment time.
	Registered time.Time
}

// Score is a trust value in [0,1].
type Score float64

// ledgerStripes is the fixed stripe count of the ledger's node map. The
// ledger sits on the collector's per-reading hot path (every submit
// checks registration), so entries are lock-striped by node ID the same
// way the collector's ingest maps are striped; 16 stripes keeps the
// fast path uncontended well past the core counts we run on.
const ledgerStripes = 16

// ledgerStripe holds the nodes (and their scores) that hash to it.
type ledgerStripe struct {
	mu     sync.RWMutex
	nodes  map[NodeID]*Node
	scores map[NodeID]Score
	_      [24]byte // pad to a cache line against false sharing
}

// Ledger tracks node trust with exponentially weighted updates. It is safe
// for concurrent use; node entries are lock-striped so concurrent
// registration checks and score reads from many ingest goroutines do not
// serialize on one RWMutex.
type Ledger struct {
	stripes [ledgerStripes]ledgerStripe
	// Alpha is the update weight for new evidence (0..1).
	Alpha float64
	// Initial is the score assigned at registration.
	Initial Score
}

// NewLedger returns a ledger with conventional defaults: new nodes start
// at 0.5 and each piece of evidence moves the score 20% of the way toward
// its verdict.
func NewLedger() *Ledger {
	l := &Ledger{Alpha: 0.2, Initial: 0.5}
	for i := range l.stripes {
		l.stripes[i].nodes = make(map[NodeID]*Node)
		l.stripes[i].scores = make(map[NodeID]Score)
	}
	return l
}

// stripe selects the stripe holding id.
func (l *Ledger) stripe(id NodeID) *ledgerStripe {
	return &l.stripes[fnv1a(string(id))&(ledgerStripes-1)]
}

// Register adds a node. Re-registering an existing ID is an error (a new
// operator must enroll a fresh identity, preserving score history).
func (l *Ledger) Register(n Node) error {
	if n.ID == "" {
		return fmt.Errorf("trust: node needs an ID")
	}
	st := l.stripe(n.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.nodes[n.ID]; ok {
		return fmt.Errorf("trust: node %s already registered", n.ID)
	}
	copy := n
	st.nodes[n.ID] = &copy
	st.scores[n.ID] = l.Initial
	return nil
}

// Node returns a registered node.
func (l *Ledger) Node(id NodeID) (Node, bool) {
	st := l.stripe(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	n, ok := st.nodes[id]
	if !ok {
		return Node{}, false
	}
	return *n, true
}

// internID returns id as a NodeID without allocating when the node is
// registered: the ledger's own copy of the string stands in for the
// bytes, which the caller (the ingest decoder) is about to overwrite.
func (l *Ledger) internID(id []byte) NodeID {
	st := &l.stripes[hash.FNV1a(id)&(ledgerStripes-1)]
	st.mu.RLock()
	n, ok := st.nodes[NodeID(id)]
	st.mu.RUnlock()
	if ok {
		return n.ID
	}
	return NodeID(id)
}

// Nodes returns every registered node, sorted by ID.
func (l *Ledger) Nodes() []Node {
	out := make([]Node, 0, l.Len())
	for i := range l.stripes {
		st := &l.stripes[i]
		st.mu.RLock()
		for _, n := range st.nodes {
			out = append(out, *n)
		}
		st.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Trust returns the node's current score (0 for unknown nodes).
func (l *Ledger) Trust(id NodeID) Score {
	st := l.stripe(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.scores[id]
}

// Record applies one piece of evidence: verdict 1.0 is fully consistent
// behaviour, 0.0 is detected fabrication. Unknown nodes are ignored.
func (l *Ledger) Record(id NodeID, verdict float64) {
	if verdict < 0 {
		verdict = 0
	}
	if verdict > 1 {
		verdict = 1
	}
	st := l.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.scores[id]
	if !ok {
		return
	}
	st.scores[id] = Score(float64(s)*(1-l.Alpha) + verdict*l.Alpha)
}

// SetScore overwrites a registered node's score with an absolute value,
// clamped to [0,1]. Unknown nodes are ignored. This is the WAL replay
// primitive: durable score records carry the post-update absolute score
// (not the evidence delta), so replaying a record twice — a snapshot
// that already folded it in, then the tail segment again — converges to
// the same ledger instead of double-applying the EWMA.
func (l *Ledger) SetScore(id NodeID, s Score) {
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	st := l.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.nodes[id]; !ok {
		return
	}
	st.scores[id] = s
}

// unregister removes a node, undoing a Register whose durable append
// failed: an enrollment the store cannot persist must not be served from
// memory, or a crash would silently drop it while the operator believes
// registration succeeded.
func (l *Ledger) unregister(id NodeID) {
	st := l.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.nodes, id)
	delete(st.scores, id)
}

// Trusted returns node IDs whose score meets the threshold, sorted by
// descending score (ties by ID for determinism).
func (l *Ledger) Trusted(threshold Score) []NodeID {
	type scored struct {
		id NodeID
		s  Score
	}
	var keep []scored
	for i := range l.stripes {
		st := &l.stripes[i]
		st.mu.RLock()
		for id, s := range st.scores {
			if s >= threshold {
				keep = append(keep, scored{id, s})
			}
		}
		st.mu.RUnlock()
	}
	sort.Slice(keep, func(i, j int) bool {
		if keep[i].s != keep[j].s {
			return keep[i].s > keep[j].s
		}
		return keep[i].id < keep[j].id
	})
	ids := make([]NodeID, len(keep))
	for i, k := range keep {
		ids[i] = k.id
	}
	return ids
}

// Len returns the number of registered nodes.
func (l *Ledger) Len() int {
	n := 0
	for i := range l.stripes {
		st := &l.stripes[i]
		st.mu.RLock()
		n += len(st.nodes)
		st.mu.RUnlock()
	}
	return n
}

// Quantize maps a trust score to a coarse rating for marketplace display.
func (s Score) Quantize() string {
	switch {
	case s >= 0.8:
		return "trusted"
	case s >= 0.55:
		return "established"
	case s >= 0.35:
		return "provisional"
	default:
		return "suspect"
	}
}
