package trust

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Ledger snapshots: nodes and scores as one JSON document. The trust log
// (internal/store) writes one when it compacts its WAL, folding sealed
// segments into it so a restart need not replay the whole history, and a
// replica joining the ring bootstraps from one streamed by a peer's
// catch-up. Nothing else persists a ledger. Pending epochs are not in it;
// they are not durable anywhere (ROADMAP item 13).

// ledgerSnapshot is the serialized ledger.
type ledgerSnapshot struct {
	SavedAt time.Time      `json:"saved_at"`
	Nodes   []nodeSnapshot `json:"nodes"`
}

type nodeSnapshot struct {
	Node
	Score Score `json:"score"`
}

// Save writes the ledger state as JSON. Stripes are snapshotted one at a
// time (writers to other stripes proceed), then merged into one sorted
// node list so the snapshot bytes are deterministic.
func (l *Ledger) Save(w io.Writer, now time.Time) error {
	snap := ledgerSnapshot{SavedAt: now.UTC()}
	for i := range l.stripes {
		st := &l.stripes[i]
		st.mu.RLock()
		for id, n := range st.nodes {
			snap.Nodes = append(snap.Nodes, nodeSnapshot{Node: *n, Score: st.scores[id]})
		}
		st.mu.RUnlock()
	}
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].ID < snap.Nodes[j].ID })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// loadClockSkewTolerance is how far a snapshot's SavedAt may sit past the
// loading clock before the snapshot is rejected as forged or corrupt. A
// collector fleet's clocks drift by seconds, not minutes; anything beyond
// this is a timestamp that never came from a wall clock we trust.
const loadClockSkewTolerance = 5 * time.Minute

// LoadAt restores a snapshot into an empty ledger. Loading over existing
// registrations is refused to avoid silent merges, a snapshot whose
// SavedAt sits meaningfully past now is rejected (a fabricator handing
// the collector a forged "future" snapshot must not win an argument with
// the clock), and duplicate node IDs are an error rather than a silent
// last-wins merge. LoadAt runs at boot, before the collector serves
// traffic, so the emptiness check does not need to hold every stripe
// lock at once.
func (l *Ledger) LoadAt(r io.Reader, now time.Time) error {
	var snap ledgerSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("trust: decoding ledger snapshot: %w", err)
	}
	if l.Len() != 0 {
		return fmt.Errorf("trust: refusing to load into a non-empty ledger")
	}
	if skew := snap.SavedAt.Sub(now); skew > loadClockSkewTolerance {
		return fmt.Errorf("trust: snapshot saved_at %s is %s in the future", snap.SavedAt.Format(time.RFC3339), skew)
	}
	seen := make(map[NodeID]struct{}, len(snap.Nodes))
	for _, ns := range snap.Nodes {
		if ns.ID == "" {
			return fmt.Errorf("trust: snapshot contains a node without an ID")
		}
		if _, dup := seen[ns.ID]; dup {
			return fmt.Errorf("trust: snapshot contains node %s twice", ns.ID)
		}
		seen[ns.ID] = struct{}{}
		if ns.Score < 0 || ns.Score > 1 {
			return fmt.Errorf("trust: snapshot score %v for %s out of range", ns.Score, ns.ID)
		}
	}
	for _, ns := range snap.Nodes {
		n := ns.Node
		st := l.stripe(ns.ID)
		st.mu.Lock()
		st.nodes[ns.ID] = &n
		st.scores[ns.ID] = ns.Score
		st.mu.Unlock()
	}
	return nil
}
