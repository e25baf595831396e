package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEveryUnitOnce(t *testing.T) {
	e := New(Config{Workers: 4})
	var counts [100]atomic.Int32
	if err := e.Run(context.Background(), len(counts), func(_ context.Context, i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("unit %d ran %d times", i, got)
		}
	}
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := New(Config{}).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("workers = %d, want %d", got, want)
	}
	if got := New(Config{Workers: 3}).Workers(); got != 3 {
		t.Fatalf("workers = %d, want 3", got)
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	e := New(Config{Workers: workers})
	var cur, peak atomic.Int32
	err := e.Run(context.Background(), 50, func(_ context.Context, i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent units, bound is %d", p, workers)
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	e := New(Config{Workers: 8})
	// Several units fail; regardless of completion order the reported
	// error must be unit 3's (the lowest failing index).
	for trial := 0; trial < 20; trial++ {
		err := e.Run(context.Background(), 32, func(_ context.Context, i int) error {
			if i == 3 || i == 17 || i == 29 {
				return fmt.Errorf("unit %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "unit 3 failed" {
			t.Fatalf("trial %d: err = %v, want unit 3's", trial, err)
		}
	}
}

// awaitSkip blocks until a worker has skipped a unit since skipped was
// read: the batch has recorded a failure and reacted to it.
func awaitSkip(t *testing.T, skipped float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for metrics().unitsSkipped.Value() == skipped {
		if time.Now().After(deadline) {
			t.Error("no unit was skipped after the failure")
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLowestIndexErrorWhenHeldPastAHigherFailure holds unit 3 until
// unit 17 has failed and the batch has skipped a later unit over it. Unit 3
// was admitted first, so its own error is the lowest and must win; a
// unit that is still running is not cancelled by a higher unit's failure.
func TestRunLowestIndexErrorWhenHeldPastAHigherFailure(t *testing.T) {
	e := New(Config{Workers: 2})
	skipped := metrics().unitsSkipped.Value()
	err := e.Run(context.Background(), 32, func(ctx context.Context, i int) error {
		switch i {
		case 3:
			awaitSkip(t, skipped)
			if err := ctx.Err(); err != nil {
				return err
			}
			return errors.New("unit 3 failed")
		case 17, 29:
			return fmt.Errorf("unit %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "unit 3 failed" {
		t.Fatalf("err = %v, want unit 3's", err)
	}
}

// TestRunLowerUnitOutlivesHigherFailure is the agent's shape: unit 0
// runs a context-aware capture while unit 1 fails. Unit 0 must finish
// under the caller's context, and Run must return unit 1's error, not
// unit 0's context.Canceled. Unit 2 only marks the moment the batch has
// reacted to unit 1's failure (it is skipped).
func TestRunLowerUnitOutlivesHigherFailure(t *testing.T) {
	e := New(Config{Workers: 2})
	skipped := metrics().unitsSkipped.Value()
	var ran2 atomic.Bool
	err := e.Run(context.Background(), 3, func(ctx context.Context, i int) error {
		switch i {
		case 0:
			awaitSkip(t, skipped)
			return ctx.Err()
		case 1:
			return errors.New("unit 1 failed")
		}
		ran2.Store(true)
		return nil
	})
	if err == nil || err.Error() != "unit 1 failed" {
		t.Fatalf("err = %v, want unit 1's", err)
	}
	if ran2.Load() {
		t.Fatal("unit 2 ran after unit 1 failed")
	}
}

func TestRunStopsAdmittingAfterFailure(t *testing.T) {
	e := New(Config{Workers: 1})
	var ran atomic.Int32
	err := e.Run(context.Background(), 100, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d units ran after unit 0 failed on a 1-worker pool", got)
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Config{Workers: 2})
	var ran atomic.Int32
	err := e.Run(ctx, 10, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("units ran under a cancelled context")
	}
}

func TestRunEmptyBatch(t *testing.T) {
	e := New(Config{Workers: 2})
	if err := e.Run(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollectMergesInSubmissionOrder(t *testing.T) {
	e := New(Config{Workers: 8})
	out, err := Collect(context.Background(), e, 64, func(_ context.Context, i int) (int, error) {
		// Finish in scrambled order; the merge must not care.
		time.Sleep(time.Duration((i*7919)%13) * 100 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestCollectDropsResultsOnError(t *testing.T) {
	e := New(Config{Workers: 4})
	out, err := Collect(context.Background(), e, 8, func(_ context.Context, i int) (string, error) {
		if i == 5 {
			return "", errors.New("bad unit")
		}
		return "ok", nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Fatalf("partial results leaked: %v", out)
	}
}

// TestSplitSeedDeterministicAndDistinct is the contract the calibration
// campaign relies on: the stream a unit draws depends only on (seed, unit).
func TestSplitSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for unit := uint64(0); unit < 1000; unit++ {
		a := SplitSeed(42, unit)
		if b := SplitSeed(42, unit); a != b {
			t.Fatalf("SplitSeed not deterministic at unit %d", unit)
		}
		if seen[a] {
			t.Fatalf("seed collision at unit %d", unit)
		}
		seen[a] = true
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatal("different base seeds produced the same unit seed")
	}
}

// TestSplitSeedStreamsIndependentOfWorkerCount draws from per-unit RNGs
// under 1 worker and 8 workers and requires identical values — the
// determinism mechanism the serial-vs-parallel campaign test leans on.
func TestSplitSeedStreamsIndependentOfWorkerCount(t *testing.T) {
	draw := func(workers int) []float64 {
		e := New(Config{Workers: workers})
		out, err := Collect(context.Background(), e, 32, func(_ context.Context, i int) (float64, error) {
			rng := rand.New(rand.NewSource(SplitSeed(99, uint64(i))))
			return rng.Float64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := draw(1), draw(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("unit %d drew %v serial vs %v parallel", i, serial[i], parallel[i])
		}
	}
}

// TestRunConcurrentBatches exercises one executor shared by several
// goroutines — the agentd case where directional and frequency sweeps
// overlap — and doubles as a -race probe for the metrics path.
func TestRunConcurrentBatches(t *testing.T) {
	e := New(Config{Workers: 4})
	var wg sync.WaitGroup
	var total atomic.Int32
	for b := 0; b < 6; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.Run(context.Background(), 25, func(context.Context, int) error {
				total.Add(1)
				return nil
			})
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 6*25 {
		t.Fatalf("ran %d units, want %d", got, 6*25)
	}
}
