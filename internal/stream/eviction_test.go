package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorcal/internal/obs"
)

// TestEvictionDuringFoldNoResurrection pins the sweeper-vs-fold window:
// a frame admitted under session A, with A evicted and the sensor
// re-registered as session B before the dispatcher folds, must land its
// session aggregation on the tombstone A — never resurrect inside B.
// The fold is held open with the foldHook seam so the interleaving is
// deterministic.
func TestEvictionDuringFoldNoResurrection(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewService(Config{
		FFTSize:  64,
		Registry: reg,
		// Sweeps are driven manually via EvictIdle below.
		IdleAfter:  time.Hour,
		SweepEvery: time.Hour,
		Grid:       GridConfig{LowHz: 500e6, HighHz: 700e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	enterFold := make(chan struct{})
	releaseFold := make(chan struct{})
	var once sync.Once
	s.foldHook = func() error {
		once.Do(func() {
			close(enterFold)
			<-releaseFold
		})
		return nil
	}

	const sensor = "sensor-raced"
	done := make(chan struct{})
	iq := make([]complex128, 64)
	if err := s.Ingest(IngestFrame{
		Sensor: sensor, CenterHz: 600e6, SampleRate: 2.4e6,
		IQ: iq, Done: func() { close(done) },
	}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	sessA := s.table.Get(sensor)
	if sessA == nil {
		t.Fatal("session not registered at admission")
	}

	<-enterFold // dispatcher is mid-fold for the admitted frame
	if n := s.table.EvictIdle(s.clk.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	sessB, err := s.table.Acquire(sensor, s.clk.Now())
	if err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if sessB == sessA {
		t.Fatal("re-registration returned the evicted session")
	}
	close(releaseFold)
	<-done

	if got := sessB.Stats().Frames; got != 0 {
		t.Errorf("re-registered session resurrected %d stale frame(s), want 0", got)
	}
	if got := sessA.Stats().Frames; got != 1 {
		t.Errorf("tombstone session folded %d frame(s), want 1", got)
	}
	if got := s.m.tombstoneFolds.Value(); got != 1 {
		t.Errorf("stream_tombstone_folds_total = %v, want 1", got)
	}
}

// TestConcurrentEvictReregisterChurn is the -race stress for the same
// window: writers stream a small set of sensor IDs while an evictor
// continuously tombstones every session, so admissions, evictions,
// re-registrations and folds interleave in every order. The race
// detector is the primary assertion; on top of it the test checks the
// accepted-frame accounting survives the churn (Done fires exactly once
// per accepted frame).
func TestConcurrentEvictReregisterChurn(t *testing.T) {
	s, err := NewService(Config{
		FFTSize:    64,
		QueueCap:   4096,
		MaxBatch:   16,
		Workers:    4,
		IdleAfter:  time.Hour,
		SweepEvery: time.Hour,
		Registry:   obs.NewRegistry(),
		Grid:       GridConfig{LowHz: 500e6, HighHz: 700e6},
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers  = 4
		sensors  = 8
		duration = 150 * time.Millisecond
	)
	var (
		accepted atomic.Int64
		doneN    atomic.Int64
		wg       sync.WaitGroup
		writing  sync.WaitGroup
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // evictor: tombstone everything, constantly
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.table.EvictIdle(s.clk.Now().Add(time.Minute))
			}
		}
	}()
	deadline := time.Now().Add(duration)
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			iq := make([]complex128, 64)
			for i := 0; time.Now().Before(deadline); i++ {
				id := "churn-" + string(rune('a'+(w+i)%sensors))
				err := s.Ingest(IngestFrame{
					Sensor: id, CenterHz: 600e6, SampleRate: 2.4e6,
					IQ: iq, Done: func() { doneN.Add(1) },
				})
				if err == nil {
					accepted.Add(1)
				}
			}
		}(w)
	}
	// Writers finish first so the evictor churns through the whole run —
	// and so no Ingest is still in flight when Close drains the queue (a
	// frame queued after the drain has nobody left to fire its Done).
	writing.Wait()
	s.Close() // drains the queue: every accepted frame's Done must fire
	close(stop)
	wg.Wait()

	if accepted.Load() != doneN.Load() {
		t.Errorf("accepted %d frames but Done fired %d times", accepted.Load(), doneN.Load())
	}
}
