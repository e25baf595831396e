package sched

// The lease queue before it became one lock: 8 fnv-hashed shards, a
// two-phase Lease and an atomic token counter. The body is kept verbatim
// (renamed) so TestQueueMatchesOracle can pin the one-lock Queue
// against it: same return values, tokens, Stats and metric counts.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/trust"
)

// oracleQueueConfig assembles an oracleQueue.
type oracleQueueConfig struct {
	// Shards partitions the task table so lease/complete traffic from a
	// large fleet does not serialize on one lock. Zero means 8.
	Shards int
	// LeaseTTL is the grace a worker gets past its task's scheduled
	// window end (or past the lease grant, for already-due tasks) before
	// the lease expires and the task requeues. Zero means 2 m.
	LeaseTTL time.Duration
	// DoneCap bounds the per-shard memory of completed task IDs kept for
	// duplicate detection (oldest forgotten first). Zero means 4096.
	DoneCap int
	// Clock drives deadlines; nil means the wall clock. Tests drive a
	// clock.Simulated through lease expiry instantly.
	Clock clock.Clock
	// Metrics is the registry the sched_* series land on; nil means the
	// process-wide default.
	Metrics *obs.Registry
}

// oracleQueue is a sharded lease-based work queue. Adding is idempotent by
// task ID, leases carry deadlines, expired leases requeue, and
// completion is exactly-once: duplicates and stale tokens are detected,
// never double-counted.
type oracleQueue struct {
	cfg    oracleQueueConfig
	clk    clock.Clock
	shards []*oracleQShard
	tokens atomic.Uint64
	m      *queueMetrics
}

type oracleQShard struct {
	mu      sync.Mutex
	entries map[string]*qentry
	// done remembers completed task IDs (FIFO-bounded) so a re-planned
	// or re-completed task is recognized instead of re-executed.
	done     map[string]struct{}
	doneFIFO []string
}

// newOracleQueue returns an empty queue.
func newOracleQueue(cfg oracleQueueConfig) *oracleQueue {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	if cfg.DoneCap <= 0 {
		cfg.DoneCap = 4096
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	q := &oracleQueue{cfg: cfg, clk: clk, m: newQueueMetrics(cfg.Metrics)}
	for i := 0; i < cfg.Shards; i++ {
		q.shards = append(q.shards, &oracleQShard{
			entries: make(map[string]*qentry),
			done:    make(map[string]struct{}),
		})
	}
	q.m.registerDepth(cfg.Metrics, q.Stats)
	return q
}

func (q *oracleQueue) shard(id string) *oracleQShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return q.shards[h.Sum32()%uint32(len(q.shards))]
}

// Add enqueues tasks, skipping any whose ID is already pending, leased
// or completed, and returns how many were newly accepted. Invalid tasks
// are rejected with an error before anything is enqueued.
func (q *oracleQueue) Add(tasks ...Task) (int, error) {
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return 0, err
		}
	}
	now := q.clk.Now()
	added := 0
	for _, t := range tasks {
		s := q.shard(t.ID)
		s.mu.Lock()
		_, exists := s.entries[t.ID]
		_, completed := s.done[t.ID]
		if !exists && !completed {
			s.entries[t.ID] = &qentry{task: t, enqueued: now}
			added++
		}
		s.mu.Unlock()
		if !exists && !completed {
			q.m.enqueued.Inc()
			q.m.forecastYield.Observe(t.ExpectedAircraft)
		}
	}
	return added, nil
}

// Lease grants up to max pending tasks pinned to node, in execution
// order (earliest window first). The deadline covers the scheduled
// window plus the TTL grace, so leasing ahead of the window does not
// expire mid-wait. Expired leases and dead tasks are swept first.
func (q *oracleQueue) Lease(node trust.NodeID, max int) []Lease {
	if max <= 0 {
		max = 1
	}
	now := q.clk.Now()
	q.expire(now)
	// Phase 1: collect candidate IDs under per-shard locks.
	type cand struct {
		id       string
		start    time.Time
		priority float64
	}
	var cands []cand
	for _, s := range q.shards {
		s.mu.Lock()
		for id, e := range s.entries {
			if e.state == statePending && e.task.Node == node {
				cands = append(cands, cand{id: id, start: e.task.Start, priority: e.task.Priority})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].start.Equal(cands[j].start) {
			return cands[i].start.Before(cands[j].start)
		}
		if cands[i].priority != cands[j].priority {
			return cands[i].priority > cands[j].priority
		}
		return cands[i].id < cands[j].id
	})
	// Phase 2: re-lock each candidate's shard and lease if still pending.
	var out []Lease
	for _, c := range cands {
		if len(out) >= max {
			break
		}
		s := q.shard(c.id)
		s.mu.Lock()
		e, ok := s.entries[c.id]
		if !ok || e.state != statePending {
			s.mu.Unlock()
			continue
		}
		deadline := now.Add(q.cfg.LeaseTTL)
		if end := e.task.Start.Add(e.task.Duration); end.After(now) {
			deadline = end.Add(q.cfg.LeaseTTL)
		}
		e.state = stateLeased
		e.token = fmt.Sprintf("%s-%d", node, q.tokens.Add(1))
		e.deadline = deadline
		e.leasedAt = now
		e.attempts++
		out = append(out, Lease{Task: e.task, Token: e.token, Deadline: deadline})
		s.mu.Unlock()
		q.m.leased.Inc()
	}
	return out
}

// Complete finishes a leased task. It is idempotent: completing an
// already-done task returns Duplicate with no error. A completion whose
// token is still the last one issued is accepted even if the lease
// deadline passed (late work is work — as long as nobody else was handed
// the task), but once the task has been re-leased the stale token gets a
// ConflictError and the new holder's completion is the one that counts.
func (q *oracleQueue) Complete(id, token string) (CompleteStatus, error) {
	now := q.clk.Now()
	s := q.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.done[id]; ok {
		q.m.duplicates.Inc()
		return Duplicate, nil
	}
	e, ok := s.entries[id]
	if !ok {
		return 0, &NotFoundError{ID: id}
	}
	if e.token == "" || e.token != token {
		return 0, &ConflictError{ID: id}
	}
	delete(s.entries, id)
	s.rememberDoneLocked(id, q.cfg.DoneCap)
	q.m.completed.Inc()
	if !e.leasedAt.IsZero() {
		q.m.leaseAge.Observe(now.Sub(e.leasedAt).Seconds())
	}
	q.m.taskLatency.Observe(now.Sub(e.enqueued).Seconds())
	return Completed, nil
}

func (s *oracleQShard) rememberDoneLocked(id string, cap int) {
	for len(s.doneFIFO) >= cap {
		delete(s.done, s.doneFIFO[0])
		s.doneFIFO = s.doneFIFO[1:]
	}
	s.done[id] = struct{}{}
	s.doneFIFO = append(s.doneFIFO, id)
}

// ExpireLeases requeues every lease whose deadline passed and drops
// tasks past their NotAfter, returning (requeued, dropped). Lease runs
// the same sweep, so calling this is only needed for its metrics and in
// tests driving a simulated clock.
func (q *oracleQueue) ExpireLeases(now time.Time) (requeued, dropped int) {
	return q.expire(now)
}

func (q *oracleQueue) expire(now time.Time) (requeued, dropped int) {
	for _, s := range q.shards {
		s.mu.Lock()
		for id, e := range s.entries {
			if !e.task.NotAfter.IsZero() && now.After(e.task.NotAfter) {
				delete(s.entries, id)
				dropped++
				continue
			}
			if e.state == stateLeased && now.After(e.deadline) {
				// Requeue; the token stays recorded so a late completion
				// from the previous holder is still honoured until the
				// task is re-leased.
				e.state = statePending
				requeued++
			}
		}
		s.mu.Unlock()
	}
	q.m.requeued.Add(float64(requeued))
	q.m.expired.Add(float64(dropped))
	return requeued, dropped
}

// Stats summarizes the queue.
func (q *oracleQueue) Stats() QueueStats {
	var st QueueStats
	for _, s := range q.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			switch e.state {
			case statePending:
				st.Pending++
			case stateLeased:
				st.Leased++
			}
		}
		st.Done += len(s.done)
		s.mu.Unlock()
	}
	return st
}
