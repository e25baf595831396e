package trust

import (
	"sync"
	"sync/atomic"
	"time"

	"sensorcal/internal/hash"
)

// Lock-striped collector state. The paper's endgame (§5) is a market fed
// by many volunteer nodes streaming calibration evidence concurrently;
// a single mutex in front of the pending-epoch, dedup and freshness maps
// serializes every core the collector has. Each kind of state is keyed
// by something different — epochs by signal ID, idempotency keys by the
// key itself, freshness by node ID — so each gets its own array of
// hash-selected stripes, each behind its own lock. Readings of different
// signals from different nodes then never touch the same lock, and the
// merge paths (CloseEpochs, Fleet, History) iterate stripes in a
// globally sorted order so their results are byte-identical to the
// single-lock collector at any stripe count.
//
// On top of the striping, two of the three families have lock-free fast
// paths (see DESIGN §17): the dedup ring answers "definitely already
// accepted" from hash-indexed atomic slots without a lock, and
// freshness is a copy-on-write map of per-node atomic nanos, so
// pure-duplicate and freshness traffic never contend at all.

// stripeCount rounds n up to a power of two (minimum 1) so stripe
// selection is a mask instead of a modulo.
func stripeCount(n int) int {
	if n < 1 {
		n = 1
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// fnv1a is the shared 64-bit FNV-1a hash (internal/hash), aliased so the
// many call sites in this package stay short.
func fnv1a(s string) uint64 { return hash.FNV1a(s) }

// epochStripe holds the open and closed epochs of every signal that
// hashes to it. History lives next to pending under the same lock
// because CloseEpochs folds an epoch into the signal's correlation sums
// in the same critical section that archives it.
type epochStripe struct {
	mu      sync.Mutex
	pending map[string]map[time.Time]*Epoch // signal → window start → epoch
	history map[string][]Epoch              // closed epochs per signal
	// corr caches the correlation check's running sums per signal, over a
	// prefix of history (see corrState). Only the close pass reads or
	// advances it, under mu; InstallHistory drops it.
	corr map[string]*corrState
	// open counts this stripe's pending (signal, window) epochs. It is
	// maintained under mu but read without it, so PendingEpochs and the
	// background closer's skip check never take stripe locks.
	open atomic.Int64
	// dirty is set (outside mu) after a submit lands a reading here. The
	// epoch closer's drain pass skips stripes that are clean and have no
	// open windows, so an idle stripe costs the closer two atomic loads
	// instead of a lock acquisition and a map scan.
	dirty atomic.Bool
	_     [20]byte // pad to a 64-byte cache line against false sharing
}

// markDirty flags the stripe for the next drain pass. Load-before-store
// keeps the steady state (already dirty) a read-only cache hit instead
// of an ownership-stealing write on every submit.
func (st *epochStripe) markDirty() {
	if !st.dirty.Load() {
		st.dirty.Store(true)
	}
}

// insertLocked lands one reading in its (signal, window) epoch. Caller
// holds st.mu and calls markDirty after unlocking.
func (st *epochStripe) insertLocked(sig string, window time.Time, node NodeID, power float64) {
	byWindow, ok := st.pending[sig]
	if !ok {
		byWindow = make(map[time.Time]*Epoch)
		st.pending[sig] = byWindow
	}
	e, ok := byWindow[window]
	if !ok {
		e = &Epoch{SignalID: sig, At: window, Readings: map[NodeID]float64{}}
		byWindow[window] = e
		st.open.Add(1)
	}
	e.Readings[node] = power
}

// freshMap is a freshness stripe's node → newest-evidence index. The map
// itself is immutable once published (copy-on-write on node insert, a
// once-per-node event); the per-node cells mutate via CAS. Timestamps
// are UnixNano, which confines freshness to years 1678–2262 — fine for
// evidence timestamps — and lets the submit hot path update a node's
// staleness with a single atomic max instead of a stripe lock.
type freshMap map[NodeID]*atomic.Int64

// freshStripe holds the newest reading timestamp of every node that
// hashes to it — the staleness signal the scheduler plans from. Reads
// and steady-state updates are lock-free; mu only serializes the
// copy-on-write republish when a new node appears.
type freshStripe struct {
	mu sync.Mutex
	m  atomic.Pointer[freshMap]
	_  [40]byte
}

// touch records at as id's newest evidence timestamp if it is newer.
// Zero timestamps are ignored: under the old map semantics a zero At
// could never satisfy After(lastSeen), so it never created an entry.
func (f *freshStripe) touch(id NodeID, at time.Time) {
	if at.IsZero() {
		return
	}
	nanos := at.UnixNano()
	if m := f.m.Load(); m != nil {
		if cell, ok := (*m)[id]; ok {
			casMax(cell, nanos)
			return
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Re-check under mu: another goroutine may have published the node
	// while we waited.
	old := f.m.Load()
	if old != nil {
		if cell, ok := (*old)[id]; ok {
			casMax(cell, nanos)
			return
		}
	}
	var next freshMap
	if old == nil {
		next = make(freshMap, 1)
	} else {
		next = make(freshMap, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	}
	cell := new(atomic.Int64)
	cell.Store(nanos)
	next[id] = cell
	f.m.Store(&next)
}

// casMax raises cell to nanos unless it already holds something newer.
func casMax(cell *atomic.Int64, nanos int64) {
	for {
		cur := cell.Load()
		if nanos <= cur {
			return
		}
		if cell.CompareAndSwap(cur, nanos) {
			return
		}
	}
}

// lastSeen returns id's newest evidence timestamp, zero if never seen.
// Lock-free. The UTC conversion makes the returned value bit-identical
// to the time.Time the old map stored for UTC inputs, which the
// equivalence tests compare with reflect.DeepEqual.
func (f *freshStripe) lastSeen(id NodeID) time.Time {
	m := f.m.Load()
	if m == nil {
		return time.Time{}
	}
	cell, ok := (*m)[id]
	if !ok {
		return time.Time{}
	}
	return time.Unix(0, cell.Load()).UTC()
}

// dedupSlots is the lock-free membership cache in front of a dedup
// stripe: a power-of-two array of pointers to the ring's live key
// strings, indexed by Mix64 of the key's hash (Mix64 so slot selection
// does not share low bits with stripe selection — all keys in a stripe
// already agree on those). Invariant: a slot never points at a key that
// has been evicted from the ring — eviction clears the slot (by pointer
// identity) before the key leaves, and resize rebuilds the table — so a
// positive hit is always authoritative. A miss (empty slot or a
// colliding other key) says nothing and falls back to the locked map.
type dedupSlots struct {
	mask  uint64
	slots []atomic.Pointer[string]
}

// dedupStripe remembers accepted idempotency keys in a fixed-size ring:
// once limit keys are held the oldest is overwritten in place. The ring
// holds pointers so each key string is shared with the slot cache and
// eviction can clear its slot by identity. mu guards the map and ring;
// the slot table is read lock-free and written only under mu.
type dedupStripe struct {
	mu    sync.Mutex
	seen  map[string]struct{}
	ring  []*string // eviction ring, len == per-stripe limit once allocated
	head  int       // index of the oldest live key
	n     int       // live keys in the ring
	slots atomic.Pointer[dedupSlots]
}

// fastDup reports, without any lock, whether key was definitely already
// accepted. h is Mix64 of the key's FNV-1a hash. False negatives are
// fine (the caller re-checks under the stripe lock); false positives
// cannot happen because a slot only ever points at a live ring key and
// the pointed-at string is compared in full.
func (s *dedupStripe) fastDup(h uint64, key string) bool {
	ds := s.slots.Load()
	if ds == nil {
		return false
	}
	p := ds.slots[h&ds.mask].Load()
	return p != nil && *p == key
}

// dup reports whether key was already accepted. Caller holds mu.
func (s *dedupStripe) dup(key string) bool {
	_, ok := s.seen[key]
	return ok
}

// remember records an accepted key, evicting the oldest once the stripe
// holds limit keys. h is Mix64 of the key's FNV-1a hash. Caller holds mu.
func (s *dedupStripe) remember(h uint64, key string, limit int) {
	if limit < 1 {
		limit = 1
	}
	if len(s.ring) != limit {
		s.resize(limit)
	}
	kp := new(string)
	*kp = key
	if s.n == len(s.ring) {
		old := s.ring[s.head]
		delete(s.seen, *old)
		s.clearSlot(*old, old)
		s.ring[s.head] = kp
		s.head = (s.head + 1) % len(s.ring)
	} else {
		s.ring[(s.head+s.n)%len(s.ring)] = kp
		s.n++
	}
	s.seen[key] = struct{}{}
	s.storeSlot(h, kp)
}

// storeSlot publishes kp in the lock-free cache, growing the table when
// the ring limit changed. Caller holds mu.
func (s *dedupStripe) storeSlot(h uint64, kp *string) {
	ds := s.slots.Load()
	if ds == nil || len(ds.slots) < slotCount(len(s.ring)) {
		ds = s.rebuildSlots()
	}
	ds.slots[h&ds.mask].Store(kp)
}

// clearSlot removes an evicted key from the cache — but only if its slot
// still points at that exact string; a colliding newer key keeps the
// slot. Caller holds mu.
func (s *dedupStripe) clearSlot(key string, kp *string) {
	ds := s.slots.Load()
	if ds == nil {
		return
	}
	i := hash.Mix64(fnv1a(key)) & ds.mask
	if ds.slots[i].Load() == kp {
		ds.slots[i].Store(nil)
	}
}

// slotCount sizes the cache at ≥ 2× the ring so the load factor stays
// under one half and collisions (lock-path fallbacks) stay rare.
func slotCount(limit int) int {
	return stripeCount(2 * limit)
}

// rebuildSlots builds a fresh slot table from the live ring and
// publishes it. Caller holds mu.
func (s *dedupStripe) rebuildSlots() *dedupSlots {
	n := slotCount(len(s.ring))
	ds := &dedupSlots{mask: uint64(n - 1), slots: make([]atomic.Pointer[string], n)}
	for i := 0; i < s.n; i++ {
		kp := s.ring[(s.head+i)%len(s.ring)]
		ds.slots[hash.Mix64(fnv1a(*kp))&ds.mask].Store(kp)
	}
	s.slots.Store(ds)
	return ds
}

// resize rebuilds the ring at a new limit, preserving FIFO order and
// evicting the oldest keys that no longer fit. DedupCap is normally set
// once before traffic, so this runs at most once per stripe. Caller
// holds mu; the slot cache is rebuilt afterwards by storeSlot noticing
// the size change.
func (s *dedupStripe) resize(limit int) {
	ordered := make([]*string, 0, s.n)
	for i := 0; i < s.n; i++ {
		kp := s.ring[(s.head+i)%len(s.ring)]
		if s.n-i > limit {
			delete(s.seen, *kp) // oldest overflow
			continue
		}
		ordered = append(ordered, kp)
	}
	s.ring = make([]*string, limit)
	s.head = 0
	s.n = copy(s.ring, ordered)
	s.rebuildSlots()
}
