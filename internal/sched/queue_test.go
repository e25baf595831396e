package sched

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/trust"
)

func testTask(node trust.NodeID, start time.Time) Task {
	return Task{
		ID:       TaskID(node, start),
		Node:     node,
		Site:     "rooftop",
		Start:    start,
		Duration: 30 * time.Second,
		Runs:     1,
	}
}

func newTestQueue(sim *clock.Simulated) *Queue {
	return NewQueue(QueueConfig{
		LeaseTTL: 2 * time.Minute,
		Clock:    sim,
		Metrics:  obs.NewRegistry(),
	})
}

func TestQueueAddIsIdempotent(t *testing.T) {
	start := time.Date(2026, 7, 8, 8, 0, 0, 0, time.UTC)
	sim := clock.NewSimulated(start)
	q := newTestQueue(sim)

	task := testTask("n1", start)
	added, err := q.Add(task)
	if err != nil || added != 1 {
		t.Fatalf("first add = (%d, %v), want (1, nil)", added, err)
	}
	// Re-planning the same horizon re-offers the same ID: no duplicate.
	added, err = q.Add(task)
	if err != nil || added != 0 {
		t.Fatalf("second add = (%d, %v), want (0, nil)", added, err)
	}
	if st := q.Stats(); st.Pending != 1 {
		t.Fatalf("pending = %d, want 1", st.Pending)
	}

	// Invalid tasks are rejected before anything lands.
	if _, err := q.Add(Task{ID: "bad"}); err == nil {
		t.Fatalf("invalid task must be rejected")
	}
}

func TestQueueLeaseCompleteLifecycle(t *testing.T) {
	start := time.Date(2026, 7, 8, 8, 0, 0, 0, time.UTC)
	sim := clock.NewSimulated(start)
	q := newTestQueue(sim)

	early := testTask("n1", start)
	late := testTask("n1", start.Add(time.Hour))
	other := testTask("n2", start)
	if _, err := q.Add(late, other, early); err != nil {
		t.Fatal(err)
	}

	// Leases are pinned to the node and granted in execution order.
	leases := q.Lease("n1", 10)
	if len(leases) != 2 {
		t.Fatalf("got %d leases, want 2", len(leases))
	}
	if leases[0].Task.ID != early.ID || leases[1].Task.ID != late.ID {
		t.Fatalf("lease order %s, %s; want earliest window first", leases[0].Task.ID, leases[1].Task.ID)
	}
	if !leases[0].Deadline.After(start) {
		t.Fatalf("deadline %s must be in the future", leases[0].Deadline)
	}

	// A leased task is not re-offered.
	if again := q.Lease("n1", 10); len(again) != 0 {
		t.Fatalf("re-lease while held granted %d tasks", len(again))
	}

	status, err := q.Complete(early.ID, leases[0].Token)
	if err != nil || status != Completed {
		t.Fatalf("complete = (%v, %v), want (Completed, nil)", status, err)
	}
	// Completion is idempotent: the retried ack is a duplicate, no error.
	status, err = q.Complete(early.ID, leases[0].Token)
	if err != nil || status != Duplicate {
		t.Fatalf("re-complete = (%v, %v), want (Duplicate, nil)", status, err)
	}

	// Unknown tasks and wrong tokens are typed errors.
	var nf *NotFoundError
	if _, err := q.Complete("ghost", "tok"); !errors.As(err, &nf) {
		t.Fatalf("unknown task: %v, want NotFoundError", err)
	}
	var cf *ConflictError
	if _, err := q.Complete(late.ID, "forged-token"); !errors.As(err, &cf) {
		t.Fatalf("wrong token: %v, want ConflictError", err)
	}

	if st := q.Stats(); st.Done != 1 || st.Leased != 1 || st.Pending != 1 {
		t.Fatalf("stats = %+v, want done=1 leased=1 pending=1", st)
	}
}

func TestQueueLeaseExpiryRequeuesExactlyOnce(t *testing.T) {
	start := time.Date(2026, 7, 8, 8, 0, 0, 0, time.UTC)
	sim := clock.NewSimulated(start)
	q := newTestQueue(sim)

	task := testTask("n1", start)
	task.NotAfter = start.Add(time.Hour)
	if _, err := q.Add(task); err != nil {
		t.Fatal(err)
	}

	first := q.Lease("n1", 1)
	if len(first) != 1 {
		t.Fatalf("got %d leases, want 1", len(first))
	}

	// The worker dies. Past the deadline the task requeues...
	sim.Advance(10 * time.Minute)
	requeued, dropped := q.ExpireLeases(sim.Now())
	if requeued != 1 || dropped != 0 {
		t.Fatalf("expire = (%d, %d), want (1, 0)", requeued, dropped)
	}

	// ...and a second worker wins it with a fresh token.
	second := q.Lease("n1", 1)
	if len(second) != 1 {
		t.Fatalf("re-lease after expiry granted %d", len(second))
	}
	if second[0].Token == first[0].Token {
		t.Fatalf("re-lease must mint a new token")
	}

	// The dead worker's completion now loses: its token was superseded.
	var cf *ConflictError
	if _, err := q.Complete(task.ID, first[0].Token); !errors.As(err, &cf) {
		t.Fatalf("stale token: %v, want ConflictError", err)
	}
	// The live holder's completion counts — exactly once.
	if status, err := q.Complete(task.ID, second[0].Token); err != nil || status != Completed {
		t.Fatalf("live complete = (%v, %v)", status, err)
	}
	if st := q.Stats(); st.Done != 1 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v, want exactly one completion", st)
	}
}

func TestQueueLateCompletionHonoredUntilReLease(t *testing.T) {
	start := time.Date(2026, 7, 8, 8, 0, 0, 0, time.UTC)
	sim := clock.NewSimulated(start)
	q := newTestQueue(sim)

	task := testTask("n1", start)
	if _, err := q.Add(task); err != nil {
		t.Fatal(err)
	}
	lease := q.Lease("n1", 1)[0]

	// The deadline passes and the sweep requeues the task, but nobody
	// re-leased it yet: the original worker's late completion is still
	// the only claim and is honored — late work is work.
	sim.Advance(10 * time.Minute)
	q.ExpireLeases(sim.Now())
	if status, err := q.Complete(task.ID, lease.Token); err != nil || status != Completed {
		t.Fatalf("late complete = (%v, %v), want (Completed, nil)", status, err)
	}
}

func TestQueueDropsTasksPastNotAfter(t *testing.T) {
	start := time.Date(2026, 7, 8, 8, 0, 0, 0, time.UTC)
	sim := clock.NewSimulated(start)
	q := newTestQueue(sim)

	task := testTask("n1", start)
	task.NotAfter = start.Add(time.Minute)
	if _, err := q.Add(task); err != nil {
		t.Fatal(err)
	}
	sim.Advance(2 * time.Minute)
	requeued, dropped := q.ExpireLeases(sim.Now())
	if requeued != 0 || dropped != 1 {
		t.Fatalf("expire = (%d, %d), want (0, 1)", requeued, dropped)
	}
	if got := q.Lease("n1", 1); len(got) != 0 {
		t.Fatalf("dead window still leased: %+v", got)
	}
}

// TestQueueMatchesOracle drives the one-lock Queue and the sharded queue
// it replaced through the same seeded Add / Lease / Complete /
// ExpireLeases / clock-step sequences and requires every return value,
// token, Stats and metric to agree. Completions stay under the old
// per-shard done memory, so neither queue forgets a completed ID.
func TestQueueMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := time.Date(2026, 7, 8, 8, 0, 0, 0, time.UTC)
		sim := clock.NewSimulated(start)
		regNew, regOld := obs.NewRegistry(), obs.NewRegistry()
		q := NewQueue(QueueConfig{LeaseTTL: 2 * time.Minute, Clock: sim, Metrics: regNew})
		o := newOracleQueue(oracleQueueConfig{LeaseTTL: 2 * time.Minute, Clock: sim, Metrics: regOld})
		nodes := []trust.NodeID{"n1", "n2", "n3"}
		var leases []Lease
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				var tasks []Task
				for i := rng.Intn(4); i >= 0; i-- {
					task := testTask(nodes[rng.Intn(len(nodes))], start.Add(time.Duration(rng.Intn(48))*5*time.Minute))
					task.Priority = float64(rng.Intn(3))
					task.ExpectedAircraft = float64(rng.Intn(40))
					if rng.Intn(2) == 0 {
						task.NotAfter = task.Start.Add(time.Duration(rng.Intn(90)) * time.Minute)
					}
					if rng.Intn(20) == 0 {
						task.Duration = 0 // invalid: the whole Add is refused
					}
					tasks = append(tasks, task)
				}
				n1, err1 := q.Add(tasks...)
				n2, err2 := o.Add(tasks...)
				if n1 != n2 || (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d step %d: Add = (%d, %v), oracle (%d, %v)", seed, step, n1, err1, n2, err2)
				}
			case op < 6:
				node, max := nodes[rng.Intn(len(nodes))], rng.Intn(4)
				got, want := q.Lease(node, max), o.Lease(node, max)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Lease = %+v, oracle %+v", seed, step, got, want)
				}
				leases = append(leases, got...)
			case op < 8:
				id, token := "ghost", "tok"
				if len(leases) > 0 {
					l := leases[rng.Intn(len(leases))]
					id, token = l.Task.ID, l.Token
					if rng.Intn(8) == 0 {
						token = "forged"
					}
				}
				s1, err1 := q.Complete(id, token)
				s2, err2 := o.Complete(id, token)
				if s1 != s2 || !reflect.DeepEqual(err1, err2) {
					t.Fatalf("seed %d step %d: Complete = (%v, %v), oracle (%v, %v)", seed, step, s1, err1, s2, err2)
				}
			case op < 9:
				r1, d1 := q.ExpireLeases(sim.Now())
				r2, d2 := o.ExpireLeases(sim.Now())
				if r1 != r2 || d1 != d2 {
					t.Fatalf("seed %d step %d: ExpireLeases = (%d, %d), oracle (%d, %d)", seed, step, r1, d1, r2, d2)
				}
			default:
				sim.Advance(time.Duration(rng.Intn(15)) * time.Minute)
			}
			if got, want := q.Stats(), o.Stats(); got != want {
				t.Fatalf("seed %d step %d: Stats = %+v, oracle %+v", seed, step, got, want)
			}
		}
		var bNew, bOld strings.Builder
		if err := regNew.WritePrometheus(&bNew); err != nil {
			t.Fatal(err)
		}
		if err := regOld.WritePrometheus(&bOld); err != nil {
			t.Fatal(err)
		}
		if bNew.String() != bOld.String() {
			t.Fatalf("seed %d: metrics differ:\n%s\noracle:\n%s", seed, bNew.String(), bOld.String())
		}
		if seed == 1 {
			t.Logf("seed 1 ends at %+v after %d leases", q.Stats(), len(leases))
		}
	}
}
