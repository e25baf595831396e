package trust

import "time"

// Store is the durable backend for trust mutations. The collector keeps
// serving from the in-memory ledger; the store's job is crash safety —
// once an append returns nil, the mutation must survive a power cut.
// internal/store implements it as an append-only segment WAL with
// snapshot compaction; tests substitute in-memory fakes.
//
// The contract is deliberately small and off the submit hot path:
// registrations append when a node enrolls, scores append when an epoch
// closes. Individual readings are never persisted here: the agent-side
// spool keeps each one durable until the collector's 202, and no longer.
// A pending epoch that dies with the process re-accumulates only the
// readings whose responses were lost and are replayed; acknowledged ones
// are gone (ROADMAP item 13).
type Store interface {
	// AppendRegister durably records an enrollment. It must return nil
	// only once the record would survive a crash.
	AppendRegister(n Node) error
	// AppendScores durably records the absolute post-update scores of an
	// epoch close. Absolute values make replay idempotent.
	AppendScores(at time.Time, updates []ScoreUpdate) error
}

// ScoreUpdate is one node's absolute score after an epoch close.
type ScoreUpdate struct {
	Node  NodeID `json:"node"`
	Score Score  `json:"score"`
}
