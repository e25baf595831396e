// Package stream is the fleet-scale continuous-monitoring service: it
// multiplexes O(10k) simulated sensor sessions through one shared,
// batched DSP engine instead of giving every sensor its own analyzer.
//
// The paper calibrates sensors in one-shot campaigns; Electrosense+
// (PAPERS.md) shows where the workload goes next — thousands of cheap IoT
// receivers whose IQ is decoded *centrally*, so the cloud pays the DSP
// cost and must amortize it. This package is that central pipeline:
//
//   - Engine batches same-size FFTs across sensors, so twiddle tables,
//     window vectors and scratch buffers are fetched once per batch
//     instead of once per sensor — with a bit-identical-to-serial
//     guarantee (the equivalence tests pin it at batch sizes 1/8/64);
//   - Session is the cheap per-sensor state machine (register → stream
//     → aggregate → evict on idle), lock-striped like the trust
//     collector's ingest state;
//   - Grid folds per-frame occupancy into time×frequency buckets, the
//     aggregation renters query through spectrumd's /api/occupancy;
//   - Service schedules frame batches onto the internal/pipeline worker
//     pool behind a bounded queue (backpressure sheds with 429 +
//     Retry-After).
package stream

import (
	"fmt"
	"math"
	"sync"

	"sensorcal/internal/dsp"
	"sensorcal/internal/iq"
)

// specScratch recycles the batch's slice-of-spectra header so Process
// allocates nothing in the steady state.
type specScratch struct {
	specs [][]complex128
}

var specsPool = sync.Pool{New: func() interface{} { return &specScratch{} }}

func getSpecs(n int) *specScratch {
	sc := specsPool.Get().(*specScratch)
	if cap(sc.specs) < n {
		sc.specs = make([][]complex128, n)
	}
	sc.specs = sc.specs[:n]
	return sc
}

func putSpecs(sc *specScratch) { specsPool.Put(sc) }

// Engine is the shared batched PSD engine for one FFT size. It holds the
// amortized per-size state — the cached window vector and its power gain;
// the twiddle tables live in dsp's per-size cache and are fetched once
// per batch. An Engine is immutable after construction and safe for
// concurrent Process calls (workers share it across the pipeline pool).
type Engine struct {
	n      int
	window dsp.WindowFunc
	win    []float64 // shared cached vector; never written
	gain   float64
}

// NewEngine returns an engine for power-of-two fftSize frames windowed
// by window (nil means Hann, the Electrosense-like default).
func NewEngine(fftSize int, window dsp.WindowFunc) (*Engine, error) {
	if fftSize < 2 || fftSize&(fftSize-1) != 0 {
		return nil, fmt.Errorf("stream: fft size %d must be a power of two >= 2", fftSize)
	}
	if window == nil {
		window = dsp.Hann
	}
	win := dsp.CachedWindow(window, fftSize)
	return &Engine{
		n:      fftSize,
		window: window,
		win:    win,
		gain:   dsp.WindowPowerGain(win),
	}, nil
}

// FFTSize returns the frame length the engine accepts.
func (e *Engine) FFTSize() int { return e.n }

// Job is one sensor frame through the shared engine: IQ in, PSD bins
// out. Bins must be a caller-owned slice of FFTSize elements — sessions
// and the bench recycle theirs, which is what makes the steady state
// allocation-free.
type Job struct {
	// IQ is the frame's complex baseband capture; len must equal the
	// engine's FFT size. It is read, never written.
	IQ []complex128
	// SampleRate is the capture rate in Hz.
	SampleRate float64
	// Bins receives the single-periodogram PSD, ordered from the lowest
	// frequency (center − rate/2) upward — the same layout as
	// spectrum.Frame.BinsDB. Process writes dBFS, ProcessPower the linear
	// full-scale-relative power dBFS is the logarithm of.
	Bins []float64
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// finitePositive reports whether x is a usable rate: x <= 0 alone lets
// NaN through, and +Inf places every bin at a non-finite frequency.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Process runs one batch of jobs through the engine. The per-frame
// arithmetic is independent of the batch size and of any other frame in
// the batch, so output is bit-identical to SerialReference whatever the
// batching — only the amortization changes: the window vector and its
// gain are the engine's, the twiddle table is fetched once for the whole
// batch (dsp.FFTBatch), and the spectra scratch comes from the dsp pools.
func (e *Engine) Process(jobs []Job) error {
	if err := e.ProcessPower(jobs); err != nil {
		return err
	}
	for i := range jobs {
		powerToDBFS(jobs[i].Bins, jobs[i].Bins)
	}
	return nil
}

// powerToDBFS writes the dBFS image of power into dst (which may be
// power itself): the last pass of Process, and what FoldPower hands Fold
// for a frame it declines.
func powerToDBFS(dst, power []float64) {
	for i, p := range power {
		dst[i] = iq.PowerToDBFS(p)
	}
}

// ProcessPower is Process stopped before the logarithm: Bins receives
// the linear power p of which Process writes iq.PowerToDBFS(p), bit for
// bit. The service folds occupancy from it (Grid.FoldPower), because
// inside the service a bin's only consumer is one comparison against a
// threshold and 256 logarithms per frame were a quarter of its CPU.
func (e *Engine) ProcessPower(jobs []Job) error {
	if len(jobs) == 0 {
		return nil
	}
	for i := range jobs {
		if len(jobs[i].IQ) != e.n {
			return fmt.Errorf("stream: job %d frame length %d, want %d", i, len(jobs[i].IQ), e.n)
		}
		if len(jobs[i].Bins) != e.n {
			return fmt.Errorf("stream: job %d bins length %d, want %d", i, len(jobs[i].Bins), e.n)
		}
		if !finitePositive(jobs[i].SampleRate) {
			return fmt.Errorf("stream: job %d sample rate %v", i, jobs[i].SampleRate)
		}
	}
	sc := getSpecs(len(jobs))
	defer putSpecs(sc)
	specs := sc.specs
	for i := range jobs {
		spec := dsp.GetComplex(e.n)
		for k, s := range jobs[i].IQ {
			spec[k] = s * complex(e.win[k], 0)
		}
		specs[i] = spec
	}
	err := dsp.FFTBatch(specs)
	if err == nil {
		for i := range jobs {
			e.power(jobs[i].Bins, specs[i], jobs[i].SampleRate)
		}
	}
	for i := range specs {
		dsp.PutComplex(specs[i])
		specs[i] = nil
	}
	return err
}

// power converts one frame's spectrum into ascending-frequency linear
// PSD bins, the FFT's upper half (from −fs/2) first. The expression per
// bin must stay in lockstep with SerialReference: bit-identity (after
// PowerToDBFS) is the contract.
func (e *Engine) power(bins []float64, spec []complex128, sampleRate float64) {
	h, binWidth := e.n/2, sampleRate/float64(e.n)
	for k, half := range [2][]complex128{spec[h:], spec[:h]} {
		for i, s := range half {
			re, im := real(s), imag(s)
			bins[k*h+i] = (re*re + im*im) / (e.gain * sampleRate) * binWidth
		}
	}
}

// SerialReference is the unshared per-sensor path the batched engine
// replaces — and the reference the equivalence tests compare against. It
// deliberately shares nothing with Engine: the window is generated
// fresh, the FFT runs through the single-frame entry point, and every
// buffer is allocated per call. This is what a fleet where each sensor
// owns its DSP would pay per frame.
func SerialReference(iqFrame []complex128, sampleRate float64, fftSize int, window dsp.WindowFunc) ([]float64, error) {
	if len(iqFrame) != fftSize {
		return nil, fmt.Errorf("stream: frame length %d, want %d", len(iqFrame), fftSize)
	}
	if !finitePositive(sampleRate) {
		return nil, fmt.Errorf("stream: sample rate %v", sampleRate)
	}
	if window == nil {
		window = dsp.Hann
	}
	win := window(fftSize)
	var gain float64
	for _, v := range win {
		gain += v * v
	}
	spec := make([]complex128, fftSize)
	for k, s := range iqFrame {
		spec[k] = s * complex(win[k], 0)
	}
	if err := dsp.FFT(spec); err != nil {
		return nil, err
	}
	bins := make([]float64, fftSize)
	n := fftSize
	binWidth := sampleRate / float64(n)
	for i := 0; i < n; i++ {
		src := (i + n/2) % n
		re, im := real(spec[src]), imag(spec[src])
		p := (re*re + im*im) / (gain * sampleRate) * binWidth
		bins[i] = iq.PowerToDBFS(p)
	}
	return bins, nil
}
