// Package pipeline is the campaign executor: a bounded worker pool that
// fans independent measurement units — one per site × window × channel —
// across GOMAXPROCS workers while keeping the merged output bit-identical
// to a serial run.
//
// The paper's three calibration probes (ADS-B FoV §3.1, cellular RSRP and
// TV band power §3.2) are independent per unit, so the only thing standing
// between a serial campaign and a parallel one is shared mutable state:
// RNG streams, scratch buffers, metric registration. The executor's
// contract removes the ordering half of the problem:
//
//   - every unit is identified by its submission index;
//   - results merge by that index, never by completion order;
//   - errors report the lowest failing index, so the error a caller sees
//     does not depend on scheduling;
//   - units that need randomness derive their stream with SplitSeed, so a
//     1-worker run and a 16-worker run draw identical values.
//
// The state half — per-unit devices, faders and DSP scratch — is the
// callers' job (internal/calib builds one sdr.Device and rfmath.Fader per
// unit; internal/dsp pools the scratch).
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes an Executor.
type Config struct {
	// Workers bounds concurrent units. Zero means GOMAXPROCS; one gives
	// the serial reference execution the determinism tests compare
	// against.
	Workers int
}

// Executor runs batches of independent units across a bounded worker
// pool. It is stateless between batches and safe for concurrent use.
type Executor struct {
	workers int
}

// New returns an executor with the configured worker bound.
func New(cfg Config) *Executor {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: w}
}

// Workers returns the worker bound.
func (e *Executor) Workers() int { return e.workers }

// Run executes fn(ctx, i) once for every i in [0, n) across the pool.
// After a failure the batch admits only units below the lowest failing
// index so far; running units keep the caller's ctx, so a failure never
// cancels them. The feed is FIFO, so every unit below the lowest failing
// index runs, and the returned error is that unit's — independent of
// scheduling. A cancelled ctx stops admitting units.
func (e *Executor) Run(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	m := metrics()
	workers := e.workers
	if workers > n {
		workers = n
	}
	batchStart := time.Now()

	// The index feed doubles as the queue-depth signal: units sit in the
	// channel until a worker picks them up.
	feed := make(chan int, n)
	for i := 0; i < n; i++ {
		feed <- i
	}
	close(feed)
	m.queueDepth.Add(float64(n))

	var (
		mu     sync.Mutex
		first  error        // the error of unit lowest
		lowest atomic.Int64 // lowest failing index so far; n while none
		wg     sync.WaitGroup
	)
	lowest.Store(int64(n))
	fail := func(i int, err error) {
		mu.Lock()
		if int64(i) < lowest.Load() {
			first = err
			lowest.Store(int64(i))
		}
		mu.Unlock()
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range feed {
				m.queueDepth.Add(-1)
				if int64(i) > lowest.Load() || ctx.Err() != nil {
					// A lower unit has failed or the caller cancelled; drain
					// the remaining indices without running them.
					m.unitsSkipped.Inc()
					continue
				}
				unitStart := time.Now()
				m.workersBusy.Add(1)
				err := fn(ctx, i)
				busy := time.Since(unitStart)
				m.workersBusy.Add(-1)
				m.busySeconds.Add(busy.Seconds())
				m.unitDuration.Observe(busy.Seconds())
				if err != nil {
					m.unitFailures.Inc()
					fail(i, err)
					continue
				}
				m.unitsDone.Inc()
			}
		}()
	}
	wg.Wait()

	elapsed := time.Since(batchStart)
	m.batches.Inc()
	if elapsed > 0 {
		m.unitsPerSecond.Set(float64(n) / elapsed.Seconds())
	}

	mu.Lock()
	defer mu.Unlock()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// Collect runs fn across the executor's pool and returns the results in
// submission order: out[i] is fn(ctx, i)'s value regardless of which
// worker ran it or when it finished. On error the partial results are
// discarded and the lowest failing index's error is returned.
func Collect[T any](ctx context.Context, e *Executor, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.Run(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SplitSeed derives an independent, well-mixed seed for one unit of a
// batch from the batch's base seed. Splitting (rather than sharing one
// rand.Rand) is what keeps parallel campaigns deterministic: every unit's
// RNG stream depends only on (seed, unit), never on execution order.
//
// The mix is SplitMix64 — the generator recommended for exactly this
// seed-derivation job — so neighbouring unit indices land on statistically
// unrelated streams.
func SplitSeed(seed int64, unit uint64) int64 {
	z := uint64(seed) + (unit+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
