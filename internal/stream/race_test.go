package stream

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sensorcal/internal/obs"
)

// TestConcurrentSessionChurn is the -race stress: many goroutines
// register, stream and query while the sweeper aggressively evicts.
// Sessions re-register under eviction pressure, so every lifecycle
// transition races against every other; the race detector is the
// assertion.
func TestConcurrentSessionChurn(t *testing.T) {
	cfg := Config{
		FFTSize:    64,
		QueueCap:   1024,
		MaxBatch:   32,
		Workers:    4,
		IdleAfter:  5 * time.Millisecond,
		SweepEvery: time.Millisecond,
		Registry:   obs.NewRegistry(),
		Grid:       GridConfig{LowHz: 500e6, HighHz: 700e6},
	}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		writers  = 8
		sensors  = 64
		perIter  = 40
		duration = 150 * time.Millisecond
	)
	frame := randFrame(64, 7)
	stop := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; time.Now().Before(stop); iter++ {
				for i := 0; i < perIter; i++ {
					id := fmt.Sprintf("churn-%d", (w*perIter+iter+i)%sensors)
					// Shed errors are expected under pressure; the test
					// only cares that nothing races or deadlocks.
					_ = s.Ingest(IngestFrame{
						Sensor: id, CenterHz: 600e6, SampleRate: 2.4e6, IQ: frame,
					})
				}
			}
		}(w)
	}
	// Readers hammer the query surfaces concurrently.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				_, _ = s.Grid().Query(500e6, 700e6)
				_ = s.Sessions().Len()
				if sess := s.Sessions().Get("churn-0"); sess != nil {
					_ = sess.Stats()
				}
				_ = s.Degraded()
			}
		}()
	}
	wg.Wait()
	// Drain whatever is still queued so Close has nothing surprising.
	s.Close()
	if s.QueueDepth() != 0 {
		t.Fatalf("queue not drained at close: %d", s.QueueDepth())
	}
}

// TestSessionTableConcurrentAcquireEvict isolates the table: acquire and
// evict the same IDs from many goroutines while Len/Stats read.
func TestSessionTableConcurrentAcquireEvict(t *testing.T) {
	tab := NewSessionTable(128, 8)
	stop := time.Now().Add(100 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				id := fmt.Sprintf("s-%d", i%200)
				if sess, err := tab.Acquire(id, time.Now()); err == nil {
					sess.touch(time.Now(), 0.5)
					_ = sess.Stats()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			tab.EvictIdle(time.Now().Add(-time.Microsecond))
			_ = tab.Len()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if tab.Len() < 0 || tab.Len() > 128 {
		t.Fatalf("table count out of bounds: %d", tab.Len())
	}
}
