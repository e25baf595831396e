package sched

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/trust"
)

// QueueConfig assembles a Queue.
type QueueConfig struct {
	// LeaseTTL is the grace a worker gets past its task's scheduled
	// window end (or past the lease grant, for already-due tasks) before
	// the lease expires and the task requeues. Zero means 2 m.
	LeaseTTL time.Duration
	// Clock drives deadlines; nil means the wall clock. Tests drive a
	// clock.Simulated through lease expiry instantly.
	Clock clock.Clock
	// Metrics is the registry the sched_* series land on; nil means the
	// process-wide default.
	Metrics *obs.Registry
}

// doneCap bounds the memory of completed task IDs kept for duplicate
// detection; the oldest is forgotten first.
const doneCap = 32768

// Queue is a lease-based work queue behind one lock. Adding is
// idempotent by task ID, leases carry deadlines, expired leases requeue,
// and completion is exactly-once: duplicates and stale tokens are
// detected, never double-counted.
type Queue struct {
	cfg QueueConfig
	clk clock.Clock
	m   *queueMetrics

	mu      sync.Mutex
	entries map[string]*qentry
	// done remembers completed task IDs (FIFO-bounded) so a re-planned
	// or re-completed task is recognized instead of re-executed.
	done     map[string]struct{}
	doneFIFO []string
	tokens   uint64
}

type taskState int

const (
	statePending taskState = iota
	stateLeased
)

type qentry struct {
	task     Task
	state    taskState
	token    string
	deadline time.Time
	enqueued time.Time
	leasedAt time.Time
	attempts int
}

// NewQueue returns an empty queue.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	q := &Queue{
		cfg:     cfg,
		clk:     clk,
		m:       newQueueMetrics(cfg.Metrics),
		entries: make(map[string]*qentry),
		done:    make(map[string]struct{}),
	}
	q.m.registerDepth(cfg.Metrics, q.Stats)
	return q
}

// Add enqueues tasks, skipping any whose ID is already pending, leased
// or completed, and returns how many were newly accepted. Invalid tasks
// are rejected with an error before anything is enqueued.
func (q *Queue) Add(tasks ...Task) (int, error) {
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return 0, err
		}
	}
	now := q.clk.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	added := 0
	for _, t := range tasks {
		_, exists := q.entries[t.ID]
		_, completed := q.done[t.ID]
		if exists || completed {
			continue
		}
		q.entries[t.ID] = &qentry{task: t, enqueued: now}
		added++
		q.m.enqueued.Inc()
		q.m.forecastYield.Observe(t.ExpectedAircraft)
	}
	return added, nil
}

// Lease is one granted task: execute it and call Complete with the
// token before the deadline, or the task requeues.
type Lease struct {
	Task     Task      `json:"task"`
	Token    string    `json:"token"`
	Deadline time.Time `json:"deadline"`
}

// Lease grants up to max pending tasks pinned to node, in execution
// order (earliest window first). The deadline covers the scheduled
// window plus the TTL grace, so leasing ahead of the window does not
// expire mid-wait. Expired leases and dead tasks are swept first.
func (q *Queue) Lease(node trust.NodeID, max int) []Lease {
	if max <= 0 {
		max = 1
	}
	now := q.clk.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	var cands []*qentry
	for _, e := range q.entries {
		if e.state == statePending && e.task.Node == node {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i].task, cands[j].task
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		return a.ID < b.ID
	})
	var out []Lease
	for _, e := range cands[:min(max, len(cands))] {
		deadline := now.Add(q.cfg.LeaseTTL)
		if end := e.task.Start.Add(e.task.Duration); end.After(now) {
			deadline = end.Add(q.cfg.LeaseTTL)
		}
		q.tokens++
		e.state = stateLeased
		e.token = fmt.Sprintf("%s-%d", node, q.tokens)
		e.deadline = deadline
		e.leasedAt = now
		e.attempts++
		out = append(out, Lease{Task: e.task, Token: e.token, Deadline: deadline})
		q.m.leased.Inc()
	}
	return out
}

// CompleteStatus is the outcome of a Complete call.
type CompleteStatus int

const (
	// Completed: this call finished the task.
	Completed CompleteStatus = iota
	// Duplicate: the task was already completed; the caller's work is
	// acknowledged but changed nothing (idempotent completion).
	Duplicate
)

// NotFoundError marks a completion for a task the queue never held (or
// expired outright).
type NotFoundError struct{ ID string }

func (e *NotFoundError) Error() string { return fmt.Sprintf("sched: task %s not found", e.ID) }

// ConflictError marks a completion whose lease token lost: the lease
// expired and the task was re-leased to another worker.
type ConflictError struct{ ID string }

func (e *ConflictError) Error() string {
	return fmt.Sprintf("sched: task %s lease superseded; completion rejected", e.ID)
}

// Complete finishes a leased task. It is idempotent: completing an
// already-done task returns Duplicate with no error. A completion whose
// token is still the last one issued is accepted even if the lease
// deadline passed (late work is work — as long as nobody else was handed
// the task), but once the task has been re-leased the stale token gets a
// ConflictError and the new holder's completion is the one that counts.
func (q *Queue) Complete(id, token string) (CompleteStatus, error) {
	now := q.clk.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.done[id]; ok {
		q.m.duplicates.Inc()
		return Duplicate, nil
	}
	e, ok := q.entries[id]
	if !ok {
		return 0, &NotFoundError{ID: id}
	}
	if e.token == "" || e.token != token {
		return 0, &ConflictError{ID: id}
	}
	delete(q.entries, id)
	if len(q.doneFIFO) == doneCap {
		delete(q.done, q.doneFIFO[0])
		q.doneFIFO = q.doneFIFO[1:]
	}
	q.done[id] = struct{}{}
	q.doneFIFO = append(q.doneFIFO, id)
	q.m.completed.Inc()
	if !e.leasedAt.IsZero() {
		q.m.leaseAge.Observe(now.Sub(e.leasedAt).Seconds())
	}
	q.m.taskLatency.Observe(now.Sub(e.enqueued).Seconds())
	return Completed, nil
}

// ExpireLeases requeues every lease whose deadline passed and drops
// tasks past their NotAfter, returning (requeued, dropped). Lease runs
// the same sweep, so calling this is only needed for its metrics and in
// tests driving a simulated clock.
func (q *Queue) ExpireLeases(now time.Time) (requeued, dropped int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expireLocked(now)
}

func (q *Queue) expireLocked(now time.Time) (requeued, dropped int) {
	for id, e := range q.entries {
		if !e.task.NotAfter.IsZero() && now.After(e.task.NotAfter) {
			delete(q.entries, id)
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
	q.m.requeued.Add(float64(requeued))
	q.m.expired.Add(float64(dropped))
	return requeued, dropped
}

// QueueStats is a point-in-time summary for /api/stats and the depth
// gauges.
type QueueStats struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
}

// Stats summarizes the queue.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{Done: len(q.done)}
	for _, e := range q.entries {
		switch e.state {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		}
	}
	return st
}
