package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host speed. The box this benchmark was built on is a two-vCPU guest
// whose cores flip, several times a second, between two speeds about
// 1.4× apart (a neighbour on the sibling hyperthread, most likely), and
// the share of time spent in the slow state drifts over minutes. Ten
// runs of one binary then spread by 12–28 % on every figure derived from
// CPU time, and the same runs' cost tracked a fixed reference kernel's
// within 7 %.
//
// So the workloads time a reference kernel while they run: every 100 ms
// a goroutine runs a fixed piece of standard-library work (JSON decode,
// float sort: the instruction mix of the ingest path, none of this
// repo's code) for about two thirds of a millisecond. The mean burst
// over the window, relative to hostSpeedNominal, is the host's slowdown
// during this run, and figures that are CPU time by construction are
// reported at nominal speed: rates multiplied by it, times divided. The
// record keeps the raw values and the slowdown next to them. Latencies
// that contain a timer (the closer's phase, the dispatcher's linger)
// are never normalised.

// hostSpeedNominal is what one burst takes on the box the bounds were
// measured on, at its usual mix of fast and slow. It only fixes the
// scale: on another host every normalised figure moves by one constant.
const hostSpeedNominal = 650 * time.Microsecond

const hostSpeedEvery = 100 * time.Millisecond

var speedDoc = []byte(`[{"node":"node-0001","signal_id":"nb00-tv-473MHz","power_dbm":-61.2381234,"at":"2026-09-30T12:00:00.123456789Z","key":"node-0001|nb00-tv-473MHz|abcdefghijk","trace":"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},` +
	`{"node":"node-0002","signal_id":"nb00-tv-479MHz","power_dbm":-58.11,"at":"2026-09-30T12:00:00.223456789Z","key":"node-0002|nb00-tv-479MHz|abcdefghijk","trace":"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"}]`)

type speedRow struct {
	Node     string    `json:"node"`
	SignalID string    `json:"signal_id"`
	PowerDBm float64   `json:"power_dbm"`
	At       time.Time `json:"at"`
	Key      string    `json:"key"`
	Trace    string    `json:"trace"`
}

// speedKernel is the reference kernel and its buffers.
type speedKernel struct {
	fl, tmp []float64
	rows    []speedRow
}

func newSpeedKernel() *speedKernel {
	k := &speedKernel{fl: make([]float64, 255), tmp: make([]float64, 255)}
	r := mix(0x5feed)
	for i := range k.fl {
		k.fl[i] = -90 + 60*r.float()
	}
	return k
}

// burst runs the kernel once and returns how long it took.
func (k *speedKernel) burst() time.Duration {
	start := time.Now()
	for i := 0; i < 40; i++ {
		k.rows = k.rows[:0]
		if err := json.Unmarshal(speedDoc, &k.rows); err != nil {
			panic(err) // the document is a constant
		}
		copy(k.tmp, k.fl)
		sort.Float64s(k.tmp)
	}
	return time.Since(start)
}

// burstAllocs is how many objects one burst allocates, counted once at
// start-up while nothing else runs. The workloads take their probe's
// allocations out of their own counts.
var burstAllocs = func() uint64 {
	k := newSpeedKernel()
	k.burst() // encoding/json caches the row type's decoder on first use
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	k.burst()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}()

// speedProbe runs the kernel at a fixed cadence beside a workload until
// stopped.
type speedProbe struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	bursts []sample // at = ns since the window opened, dur = the burst
}

func startSpeedProbe(w *window) *speedProbe {
	p := &speedProbe{stop: make(chan struct{})}
	k := newSpeedKernel()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tk := time.NewTicker(hostSpeedEvery)
		defer tk.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tk.C:
			}
			d := k.burst()
			p.bursts = append(p.bursts, sample{at: int64(time.Since(w.t0)), dur: int64(d)})
		}
	}()
	return p
}

// slowdown stops the probe and returns the mean burst over the kept
// slices relative to nominal. A burst of more than twice the median was
// interrupted, not slowed (a preempted thread, the hypervisor), and is
// left out: the two speeds are 1.4× apart, an interruption is
// milliseconds.
func (p *speedProbe) slowdown(w *window, keep []bool) float64 {
	close(p.stop)
	p.wg.Wait()
	durs := durationsOf(inSlices(p.bursts, int64(w.slice), keep))
	if len(durs) == 0 {
		return 1
	}
	limit := 2 * median(durs)
	sum, n := 0.0, 0
	for _, d := range durs {
		if d <= limit {
			sum += d
			n++
		}
	}
	return sum / float64(n) / float64(hostSpeedNominal)
}
