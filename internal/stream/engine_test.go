package stream

import (
	"math"
	"math/rand"
	"testing"

	"sensorcal/internal/dsp"
	"sensorcal/internal/iq"
)

// randFrame builds a deterministic pseudo-sensor frame: a tone plus
// noise, different per seed so batch-mates never share data.
func randFrame(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]complex128, n)
	toneBin := 3 + seed%7
	for i := range out {
		ph := 2 * math.Pi * float64(toneBin) * float64(i) / float64(n)
		out[i] = complex(0.4*math.Cos(ph)+0.05*rng.NormFloat64(),
			0.4*math.Sin(ph)+0.05*rng.NormFloat64())
	}
	return out
}

// TestEngineBitIdenticalToSerial is the contract of the whole subsystem:
// batching changes only the amortization, never the arithmetic. Every
// frame through a shared engine at batch sizes 1, 8 and 64 must produce
// bit-for-bit the spectra of the share-nothing serial path.
func TestEngineBitIdenticalToSerial(t *testing.T) {
	const n = 256
	const rate = 2.4e6
	eng, err := NewEngine(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batchSize := range []int{1, 8, 64} {
		frames := make([][]complex128, batchSize)
		jobs := make([]Job, batchSize)
		for i := range frames {
			frames[i] = randFrame(n, int64(100*batchSize+i))
			jobs[i] = Job{IQ: frames[i], SampleRate: rate, Bins: make([]float64, n)}
		}
		if err := eng.Process(jobs); err != nil {
			t.Fatalf("batch %d: %v", batchSize, err)
		}
		for i := range frames {
			want, err := SerialReference(frames[i], rate, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if math.Float64bits(jobs[i].Bins[k]) != math.Float64bits(want[k]) {
					t.Fatalf("batch %d frame %d bin %d: batched %v != serial %v",
						batchSize, i, k, jobs[i].Bins[k], want[k])
				}
			}
		}
	}
}

// TestEngineRejectsBadJobs pins the validation surface.
func TestEngineRejectsBadJobs(t *testing.T) {
	eng, err := NewEngine(64, dsp.Hann)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Job{
		{IQ: make([]complex128, 32), SampleRate: 1e6, Bins: make([]float64, 64)},
		{IQ: make([]complex128, 64), SampleRate: 1e6, Bins: make([]float64, 32)},
		{IQ: make([]complex128, 64), SampleRate: 0, Bins: make([]float64, 64)},
	}
	for i, j := range cases {
		if err := eng.Process([]Job{j}); err == nil {
			t.Fatalf("case %d: bad job accepted", i)
		}
	}
	if _, err := NewEngine(100, nil); err == nil {
		t.Fatal("non-power-of-two FFT size accepted")
	}
	if err := eng.Process(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestEngineConcurrentProcess pins that one engine is safe shared across
// pipeline workers: concurrent batches must still each be bit-identical
// to serial (run under -race in CI).
func TestEngineConcurrentProcess(t *testing.T) {
	const n = 128
	eng, err := NewEngine(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			frame := randFrame(n, int64(g))
			want, err := SerialReference(frame, 1e6, n, nil)
			if err != nil {
				done <- err
				return
			}
			bins := make([]float64, n)
			for iter := 0; iter < 50; iter++ {
				if err := eng.Process([]Job{{IQ: frame, SampleRate: 1e6, Bins: bins}}); err != nil {
					done <- err
					return
				}
				for k := range want {
					if math.Float64bits(bins[k]) != math.Float64bits(want[k]) {
						t.Errorf("goroutine %d iter %d bin %d mismatch", g, iter, k)
						done <- nil
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestProcessIsProcessPowerThenLog pins the split of the engine's last
// pass: the dBFS bins Process writes are PowerToDBFS of the linear bins
// ProcessPower writes, bit for bit, at every batch size — so the
// power-domain fold sees exactly the powers the dB fold sees the
// logarithms of.
func TestProcessIsProcessPowerThenLog(t *testing.T) {
	const n = 256
	const rate = 2.4e6
	eng, err := NewEngine(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batchSize := range []int{1, 8, 64} {
		db := make([]Job, batchSize)
		lin := make([]Job, batchSize)
		for i := range db {
			frame := randFrame(n, int64(200*batchSize+i))
			db[i] = Job{IQ: frame, SampleRate: rate, Bins: make([]float64, n)}
			lin[i] = Job{IQ: frame, SampleRate: rate, Bins: make([]float64, n)}
		}
		if err := eng.Process(db); err != nil {
			t.Fatal(err)
		}
		if err := eng.ProcessPower(lin); err != nil {
			t.Fatal(err)
		}
		for i := range db {
			for k, p := range lin[i].Bins {
				if math.Float64bits(iq.PowerToDBFS(p)) != math.Float64bits(db[i].Bins[k]) {
					t.Fatalf("batch %d frame %d bin %d: PowerToDBFS(%v) = %v, Process wrote %v",
						batchSize, i, k, p, iq.PowerToDBFS(p), db[i].Bins[k])
				}
			}
		}
	}
}
