package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// heapAllocObjects is the cumulative allocation count, read without
// stopping the world so it can bracket a close pass.
func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// procSnapshot brackets a timed window: taken outside it, because
// ReadMemStats stops the world.
type procSnapshot struct {
	at    time.Time
	cpu   float64
	mem   runtime.MemStats
	gcCPU float64
}

func snapshotProc() procSnapshot {
	var p procSnapshot
	runtime.ReadMemStats(&p.mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	p.cpu = cpuSeconds()
	p.at = time.Now()
	return p
}

// processMetrics fills the process.* layer from two snapshots around a
// window in which items were accepted and the speed probe ran bursts
// times.
func processMetrics(out metricSet, before, after procSnapshot, items int64, bursts int) {
	cpu := after.cpu - before.cpu
	if items > 0 {
		out.set("process.allocs_per_item", float64(after.mem.Mallocs-before.mem.Mallocs-uint64(bursts)*burstAllocs)/float64(items), "count")
	}
	// Pauses count from process start, set-ups included: a steady state
	// that allocates nothing (the stream side) never collects inside the
	// window, and its set-up's collections are what its heap costs.
	out.set("process.gc_pause_ms_total", float64(after.mem.PauseTotalNs)/1e6, "ms")
	if cpu > 0 {
		out.set("process.gc_cpu_fraction", (after.gcCPU-before.gcCPU)/cpu, "ratio")
	}
	out.set("process.heap_inuse_mb_end", float64(after.mem.HeapInuse)/(1<<20), "MB")
	out.set("process.goroutines_end", float64(runtime.NumGoroutine()), "count")
}

// hostJiffies reads the first line of /proc/stat: the jiffies the
// hypervisor stole from this VM (time a vCPU was runnable but not run)
// and the jiffies of all states, over all CPUs.
func hostJiffies() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stolenAbove is the share of a slice's CPU time the hypervisor may take
// before the slice is set aside.
const stolenAbove = 0.05

// sliceSampler reads the host's steal counter and the process's CPU time
// at every slice boundary of a window. On a shared box the hypervisor
// takes the CPU away for tens of milliseconds at a time; a slice in
// which it took more than stolenAbove measures the neighbours, not the
// system, and the workloads leave such slices out of every figure.
type sliceSampler struct {
	w     *window
	steal []float64 // cumulative, at boundary k
	total []float64
	cpu   []float64
	done  chan struct{}
}

func startSliceSampler(w *window) *sliceSampler {
	s := &sliceSampler{w: w, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for k := 0; k <= w.slices(); k++ {
			time.Sleep(time.Until(w.t0.Add(time.Duration(k) * w.slice)))
			st, tot := hostJiffies()
			s.steal = append(s.steal, st)
			s.total = append(s.total, tot)
			s.cpu = append(s.cpu, cpuSeconds())
		}
	}()
	return s
}

// wait blocks until the last boundary has been sampled and returns, per
// slice, the stolen share and the process CPU seconds.
func (s *sliceSampler) wait() (stolen, cpu []float64) {
	<-s.done
	for k := 0; k+1 < len(s.steal); k++ {
		share := 0.0
		if d := s.total[k+1] - s.total[k]; d > 0 {
			share = (s.steal[k+1] - s.steal[k]) / d
		}
		stolen = append(stolen, share)
		cpu = append(cpu, s.cpu[k+1]-s.cpu[k])
	}
	return stolen, cpu
}

// cleanSlices marks the slices to keep: those the hypervisor took at most
// stolenAbove of, and in any case the cleaner half, so that a busy box
// still leaves half a window to measure. nStolen counts the slices over
// the threshold, kept or not.
func cleanSlices(stolen []float64) (keep []bool, nStolen int) {
	limit := math.Max(stolenAbove, median(stolen))
	keep = make([]bool, len(stolen))
	for k, s := range stolen {
		keep[k] = s <= limit
		if s > stolenAbove {
			nStolen++
		}
	}
	return keep, nStolen
}

// inSlices keeps the samples that completed in a kept slice.
func inSlices(samples []sample, sliceNs int64, keep []bool) []sample {
	out := samples[:0:0]
	for _, s := range samples {
		if k := s.at / sliceNs; s.at >= 0 && int(k) < len(keep) && keep[k] {
			out = append(out, s)
		}
	}
	return out
}
