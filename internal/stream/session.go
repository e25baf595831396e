package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sensorcal/internal/hash"
)

// A sensor session is a cheap state machine:
//
//	register ──► streaming ──(idle > IdleAfter)──► evicted
//	                 ▲ │
//	                 └─┘ every frame refreshes lastSeen
//
// Registration happens explicitly (POST /api/stream/register) or
// implicitly on a sensor's first frame; eviction is a periodic sweep, so
// a fleet where most sensors are quiet costs only the table entries of
// the active ones. The table is lock-striped by sensor ID hash exactly
// like the trust collector's ingest state: 10k sensors registering and
// streaming concurrently spread across stripes instead of serializing.

// ErrSessionLimit is returned when registering would exceed the
// configured session cap. HTTP maps it to 429 + Retry-After: the fleet
// is full, try again after churn.
var ErrSessionLimit = errors.New("stream: session limit reached")

// Session is one sensor's streaming state. Mutable fields are guarded by
// mu; the aggregation fold is the only writer in the steady state.
type Session struct {
	ID string
	// Registered is when the session entered the table.
	Registered time.Time

	mu       sync.Mutex
	lastSeen time.Time
	frames   uint64
	occSum   float64 // sum of per-frame occupied-bin fractions
	evicted  bool
}

// touch refreshes the idle clock and folds one frame's occupancy
// fraction into the session aggregate. It reports whether the session is
// an evicted tombstone — the fold still lands (the frame was admitted
// under this session and its grid contribution already counted), but the
// caller can account for aggregates that no live session will ever
// serve.
func (s *Session) touch(at time.Time, occFraction float64) (evicted bool) {
	s.mu.Lock()
	if at.After(s.lastSeen) {
		s.lastSeen = at
	}
	s.frames++
	s.occSum += occFraction
	evicted = s.evicted
	s.mu.Unlock()
	return evicted
}

// SessionStats is a point-in-time snapshot of one session's aggregate.
type SessionStats struct {
	ID         string    `json:"id"`
	Registered time.Time `json:"registered"`
	LastSeen   time.Time `json:"last_seen"`
	Frames     uint64    `json:"frames"`
	// MeanOccupancy is the mean occupied-bin fraction across the
	// session's frames.
	MeanOccupancy float64 `json:"mean_occupancy"`
}

// Stats snapshots the session.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{ID: s.ID, Registered: s.Registered, LastSeen: s.lastSeen, Frames: s.frames}
	if s.frames > 0 {
		st.MeanOccupancy = s.occSum / float64(s.frames)
	}
	return st
}

// sessionStripe is one lock-striped shard of the table, padded so
// neighbouring stripes do not share a cache line under write contention.
type sessionStripe struct {
	mu sync.RWMutex
	m  map[string]*Session
	_  [32]byte
}

// SessionTable holds the fleet's sessions, striped by FNV-1a hash of the
// sensor ID.
type SessionTable struct {
	stripes []sessionStripe
	mask    uint64
	max     int
	count   atomic.Int64
	evicted atomic.Int64
}

// NewSessionTable returns a table bounded at max sessions (zero means
// 16384), striped across stripes locks (rounded up to a power of two,
// zero means 16).
func NewSessionTable(max, stripes int) *SessionTable {
	if max <= 0 {
		max = 16384
	}
	n := 1
	if stripes <= 0 {
		stripes = 16
	}
	for n < stripes {
		n <<= 1
	}
	t := &SessionTable{stripes: make([]sessionStripe, n), mask: uint64(n - 1), max: max}
	for i := range t.stripes {
		t.stripes[i].m = make(map[string]*Session)
	}
	return t
}

func (t *SessionTable) stripe(id string) *sessionStripe {
	// The same shared hash the trust collector stripes by.
	return &t.stripes[hash.FNV1a(id)&t.mask]
}

// Acquire returns the session for id, registering it when absent. The
// common case — the session exists — takes only the stripe's read lock.
func (t *SessionTable) Acquire(id string, now time.Time) (*Session, error) {
	if id == "" {
		return nil, fmt.Errorf("stream: empty sensor id")
	}
	st := t.stripe(id)
	st.mu.RLock()
	s := st.m[id]
	st.mu.RUnlock()
	if s != nil {
		return s, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s = st.m[id]; s != nil {
		return s, nil
	}
	// The cap check races benignly across stripes: a burst of brand-new
	// sensors can overshoot by at most one per stripe, which is fine for
	// a shed threshold.
	if int(t.count.Load()) >= t.max {
		return nil, ErrSessionLimit
	}
	s = &Session{ID: id, Registered: now, lastSeen: now}
	st.m[id] = s
	t.count.Add(1)
	return s, nil
}

// Get returns the session for id, or nil.
func (t *SessionTable) Get(id string) *Session {
	st := t.stripe(id)
	st.mu.RLock()
	s := st.m[id]
	st.mu.RUnlock()
	return s
}

// Len returns the live session count.
func (t *SessionTable) Len() int { return int(t.count.Load()) }

// Evicted returns the total evictions since the table was created.
func (t *SessionTable) Evicted() int64 { return t.evicted.Load() }

// EvictIdle removes every session whose lastSeen is before cutoff and
// returns how many were evicted. A frame of an evicted session that was
// already in flight still folds into the shared grid, and its session
// aggregation lands on the evicted tombstone — never on a fresh session
// the same sensor ID re-registered in the meantime. The dispatcher folds
// through the *Session captured at admission (not a by-ID lookup), so an
// evict/re-register cycle between admission and fold cannot resurrect
// the old session's aggregates inside the new one.
func (t *SessionTable) EvictIdle(cutoff time.Time) int {
	n := 0
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for id, s := range st.m {
			s.mu.Lock()
			idle := s.lastSeen.Before(cutoff)
			if idle {
				s.evicted = true
			}
			s.mu.Unlock()
			if idle {
				delete(st.m, id)
				n++
			}
		}
		st.mu.Unlock()
	}
	if n > 0 {
		t.count.Add(int64(-n))
		t.evicted.Add(int64(n))
	}
	return n
}
