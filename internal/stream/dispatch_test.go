package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorcal/internal/clock"
)

// wait fails the test if ch is not closed within a generous real-time
// bound (the services under test never need the wall clock to move).
func wait(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestLoneFrameFoldsWithoutClockAdvance pins the dispatch rule on a quiet
// queue: a frame with no company is folded at once. The service runs on a
// simulated clock that the test never advances, so any timer between
// accept and fold would hold the frame forever.
func TestLoneFrameFoldsWithoutClockAdvance(t *testing.T) {
	cfg := testConfig()
	sim := clock.NewSimulated(time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC))
	cfg.Clock = sim
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan struct{})
	if err := s.Ingest(IngestFrame{
		Sensor: "lone", CenterHz: 600e6, SampleRate: 2.4e6, IQ: randFrame(64, 1),
		Done: func() { close(done) },
	}); err != nil {
		t.Fatal(err)
	}
	wait(t, done, "the lone frame's fold")
	if got := s.m.framesDone.Value(); got != 1 {
		t.Fatalf("stream_frames_processed_total = %v, want 1", got)
	}
	// The sweeper's is the only timer the service ever arms.
	if n := sim.Pending(); n > 1 {
		t.Fatalf("%d timers pending on the service clock, want at most the sweeper's", n)
	}
}

// TestBacklogFormsOneFullBatch pins the other half of the rule: frames
// that queue up while the dispatcher is busy leave as one MaxBatch batch,
// with no help from a timer.
func TestBacklogFormsOneFullBatch(t *testing.T) {
	cfg := testConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.foldHook = func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	var folded sync.WaitGroup
	send := func() {
		folded.Add(1)
		if err := s.Ingest(IngestFrame{
			Sensor: "busy", CenterHz: 600e6, SampleRate: 2.4e6, IQ: randFrame(64, 2), Done: folded.Done,
		}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	wait(t, entered, "the dispatcher to enter the first fold")
	for i := 0; i < cfg.MaxBatch; i++ {
		send()
	}
	close(release)
	all := make(chan struct{})
	go func() { folded.Wait(); close(all) }()
	wait(t, all, "the backlog to fold")

	// Two batches, the lone first frame and the backlog: 1 + MaxBatch.
	if n, sum := s.m.batchSize.Count(), s.m.batchSize.Sum(); n != 2 || sum != float64(1+cfg.MaxBatch) {
		t.Fatalf("stream_batch_size: %d batches of %v frames in all, want 2 of %d", n, sum, 1+cfg.MaxBatch)
	}
}

// TestCloseFiresDoneExactlyOnce: every accepted frame's Done fires once,
// whether the dispatcher's loop or the shutdown drain folded it.
func TestCloseFiresDoneExactlyOnce(t *testing.T) {
	cfg := testConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.foldHook = func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	fired := make([]atomic.Int32, 1+3*cfg.MaxBatch+5) // several full batches and a short one
	for i := range fired {
		i := i
		if err := s.Ingest(IngestFrame{
			Sensor: "closing", CenterHz: 600e6, SampleRate: 2.4e6, IQ: randFrame(64, 3),
			Done: func() { fired[i].Add(1) },
		}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wait(t, entered, "the dispatcher to enter the first fold")
		}
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	close(release)
	wait(t, closed, "Close")
	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Fatalf("frame %d: Done fired %d times, want 1", i, n)
		}
	}
	if s.QueueDepth() != 0 {
		t.Fatalf("queue holds %d frames after Close", s.QueueDepth())
	}
}
