package stream

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// dbImage is what Engine.Process would have written for these powers.
func dbImage(power []float64) []float64 {
	out := make([]float64, len(power))
	powerToDBFS(out, power)
	return out
}

// sameSurface compares every slot of two grids of the same shape.
func sameSurface(t testing.TB, got, want *Grid) {
	t.Helper()
	for i := range want.slots {
		g, w := &got.slots[i], &want.slots[i]
		if g.startSec != w.startSec || g.frames != w.frames {
			t.Fatalf("slot %d: start/frames %d/%d, want %d/%d", i, g.startSec, g.frames, w.startSec, w.frames)
		}
		for b := range w.bins {
			if g.bins[b] != w.bins[b] || g.occ[b] != w.occ[b] {
				t.Fatalf("slot %d bucket %d: occ/bins %d/%d, want %d/%d", i, b, g.occ[b], g.bins[b], w.occ[b], w.bins[b])
			}
		}
	}
}

// foldBoth folds one frame through Fold (over the dB image) into want
// and through FoldPower into got, and requires the same answer.
func foldBoth(t testing.TB, got, want *Grid, power []float64, centerHz, rate float64, at time.Time) (viaDB bool) {
	t.Helper()
	before := append([]float64(nil), power...)
	wantFrac, wantErr := want.Fold(dbImage(power), centerHz, rate, at)
	frac, viaDB, err := got.FoldPower(power, centerHz, rate, at)
	if (err == nil) != (wantErr == nil) || errors.Is(err, ErrOutOfBand) != errors.Is(wantErr, ErrOutOfBand) {
		t.Fatalf("FoldPower error %v, Fold error %v", err, wantErr)
	}
	if math.Float64bits(frac) != math.Float64bits(wantFrac) {
		t.Fatalf("FoldPower fraction %v, Fold %v (centre %v rate %v, viaDB %v)", frac, wantFrac, centerHz, rate, viaDB)
	}
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(power[i]) {
			t.Fatalf("FoldPower wrote to its input at bin %d", i)
		}
	}
	return viaDB
}

// thresholdOf is the linear image of the dB threshold for these bins.
func thresholdOf(power []float64, marginDB float64) (floor, threshold float64) {
	sorted := append([]float64(nil), power...)
	sort.Float64s(sorted)
	floor = sorted[len(sorted)/4/2]
	return floor, floor * math.Pow(10, marginDB/10)
}

// diffFrame draws one frame of the differential: mostly tone-over-noise
// at every scale, salted with the cases the linear comparison has to
// hand back — and the ones just outside the guard band that it must get
// right on its own.
func diffFrame(rng *rand.Rand, n int, marginDB float64) []float64 {
	power := make([]float64, n)
	scale := math.Pow(10, -14*rng.Float64())
	for i := range power {
		power[i] = scale * rng.ExpFloat64()
	}
	for k := rng.Intn(4); k > 0; k-- {
		power[rng.Intn(n)] = scale * (10 + 1e4*rng.Float64())
	}
	floor, thr := thresholdOf(power, marginDB)
	pick := func() int { return rng.Intn(n) }
	switch rng.Intn(32) { // half the frames stay ordinary
	case 0: // constant frame
		for i := range power {
			power[i] = scale
		}
	case 1: // silence, whole or partial
		for i := range power {
			if rng.Intn(3) > 0 {
				power[i] = 0
			}
		}
		if rng.Intn(2) == 0 {
			for i := range power {
				power[i] = 0
			}
		}
	case 2: // non-finite and negative bins
		power[pick()] = math.NaN()
		power[pick()] = math.Inf(1)
		power[pick()] = -scale
	case 3: // bins on and next to the threshold's image
		power[pick()] = thr
		power[pick()] = math.Nextafter(thr, math.Inf(1))
		power[pick()] = math.Nextafter(thr, 0)
	case 4: // bins on the guard band's edges: the outermost it hands back, the innermost it decides itself
		hi, lo := thr*(1+powerGuard), thr*(1-powerGuard)
		edges := []float64{hi, math.Nextafter(hi, 0), math.Nextafter(lo, 0), lo}
		power[pick()] = edges[rng.Intn(4)]
		power[pick()] = edges[rng.Intn(4)]
	case 5: // bins a few guard widths either side
		power[pick()] = thr * (1 + powerGuard*(4*rng.Float64()-2))
	case 6: // near-ties and exact ties at the floor
		power[pick()] = math.Nextafter(floor, math.Inf(1))
		power[pick()] = floor * (1 - powerGuard*rng.Float64())
		power[pick()] = floor
	case 7: // subnormal and huge scales
		f := 0x1p-1040
		if rng.Intn(2) == 0 {
			f = 0x1p+1000
		}
		for i := range power {
			power[i] *= f / scale
		}
	}
	return power
}

// TestFoldPowerMatchesFold is the exactness claim of the power-domain
// fold, pinned rather than argued: over 20 000 frames — ordinary ones and
// every hand-back case — FoldPower returns the fraction Fold returns over
// the dB image, bit for bit, and leaves the identical surface behind.
func TestFoldPowerMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	base := time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC)
	frames, fast := 0, 0
	// A margin narrower than the guard band hands every frame back.
	for _, run := range []struct {
		marginDB float64
		frames   int
	}{{6, 8000}, {0.5, 5000}, {30, 5000}, {1e-12, 2000}} {
		marginDB := run.marginDB
		cfg := GridConfig{MarginDB: marginDB, Slots: 8}
		got, _ := NewGrid(cfg)
		want, _ := NewGrid(cfg)
		for i := 0; i < run.frames; i++ {
			n := []int{64, 256, 256, 1024}[rng.Intn(4)]
			rate := []float64{2.4e6, 2.4e6, 20e6, 0.3e6}[rng.Intn(4)]
			// Centres run from below the band to above it, so frames
			// straddle both edges and some miss altogether.
			centre := 460e6 + 250e6*rng.Float64()
			// Times span three laps of the ring, so slots reset.
			at := base.Add(time.Duration(rng.Intn(240)) * time.Second)
			power := diffFrame(rng, n, marginDB)
			if !foldBoth(t, got, want, power, centre, rate, at) {
				fast++
			}
			frames++
		}
		sameSurface(t, got, want)
	}
	// The comparison is vacuous if everything was handed back.
	if fast < frames/2 {
		t.Fatalf("only %d of %d frames took the power path", fast, frames)
	}
}

// TestFoldPowerConcurrentChunks folds the same frames serially through
// Fold and from four goroutines through FoldPower (as the service's
// chunks do): the fold is a commutative sum, so the surfaces agree. Run
// under -race in CI.
func TestFoldPowerConcurrentChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	base := time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC)
	type frame struct {
		power  []float64
		centre float64
		at     time.Time
	}
	frames := make([]frame, 2000)
	for i := range frames {
		// Inside one lap of the ring: a reset would make the surface
		// depend on fold order.
		frames[i] = frame{diffFrame(rng, 256, 6), 471e6 + 226e6*rng.Float64(), base.Add(time.Duration(rng.Intn(30)) * time.Second)}
	}
	got, _ := NewGrid(GridConfig{})
	want, _ := NewGrid(GridConfig{})
	for _, f := range frames {
		if _, err := want.Fold(dbImage(f.power), f.centre, 2.4e6, f.at); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const chunks = 4
	for c := 0; c < chunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(frames); i += chunks {
				f := frames[i]
				if _, _, err := got.FoldPower(f.power, f.centre, 2.4e6, f.at); err != nil {
					t.Error(err)
				}
			}
		}(c)
	}
	wg.Wait()
	sameSurface(t, got, want)
}

// FuzzFoldPower: arbitrary bin bit patterns, placement and margin leave
// the surface Fold leaves over the dB image.
func FuzzFoldPower(f *testing.F) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		power := diffFrame(rng, 64, 6)
		raw := make([]byte, 8*len(power))
		for k, p := range power {
			binary.LittleEndian.PutUint64(raw[8*k:], math.Float64bits(p))
		}
		f.Add(raw, 480e6+float64(i)*30e6, 2.4e6, 6.0)
	}
	f.Add([]byte{}, 482e6, 2.4e6, 6.0)
	f.Add(make([]byte, 64), math.NaN(), math.Inf(1), math.NaN())
	at := time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, raw []byte, centre, rate, marginDB float64) {
		if len(raw) > 8*1024 {
			raw = raw[:8*1024]
		}
		power := make([]float64, len(raw)/8)
		for k := range power {
			power[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		cfg := GridConfig{MarginDB: marginDB, Slots: 2}
		got, err := NewGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewGrid(cfg)
		foldBoth(t, got, want, power, centre, rate, at)
		sameSurface(t, got, want)
	})
}

// benchFrames returns count distinct bench-like frames (fleetFrame) as
// Engine.ProcessPower's linear power, each with a centre that keeps the
// frame inside the default grid's band.
func benchFrames(tb testing.TB, count, n int) (power [][]float64, centres []float64) {
	const rate = 2.4e6
	eng, err := NewEngine(n, nil)
	if err != nil {
		tb.Fatal(err)
	}
	jobs := make([]Job, count)
	rng := rand.New(rand.NewSource(34))
	for i := range jobs {
		jobs[i] = Job{IQ: fleetFrame(n, int64(i)), SampleRate: rate, Bins: make([]float64, n)}
		power = append(power, jobs[i].Bins)
		centres = append(centres, 470e6+rate/2+(228e6-rate)*rng.Float64())
	}
	if err := eng.ProcessPower(jobs); err != nil {
		tb.Fatal(err)
	}
	return power, centres
}

// BenchmarkFoldPower cycles over 64 distinct bench-like frames, so the
// branch predictor cannot learn one of them.
func BenchmarkFoldPower(b *testing.B) {
	power, centres := benchFrames(b, 64, 256)
	g, _ := NewGrid(GridConfig{})
	at := time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(power)
		if _, viaDB, err := g.FoldPower(power[k], centres[k], 2.4e6, at); err != nil || viaDB {
			b.Fatalf("frame %d: viaDB %v, err %v", k, viaDB, err)
		}
	}
}

// TestFoldPowerFastPathAllocs pins the power path's allocation contract:
// after warm-up, folding a bench-like frame allocates nothing.
func TestFoldPowerFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	power, centres := benchFrames(t, 64, 256)
	g, _ := NewGrid(GridConfig{})
	at := time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC)
	k := 0
	fold := func() {
		if _, viaDB, err := g.FoldPower(power[k], centres[k], 2.4e6, at); err != nil || viaDB {
			t.Fatalf("frame %d: viaDB %v, err %v", k, viaDB, err)
		}
		k = (k + 1) % len(power)
	}
	fold()
	if avg := testing.AllocsPerRun(200, fold); avg != 0 {
		t.Fatalf("FoldPower allocates %.2f objects per frame on the power path, want 0", avg)
	}
}

// TestRunsMatchBucketOf pins the per-frame bucket runs to the per-bin
// definition: over random placements — frames across both band edges,
// bands whose last bucket is narrower or whose tail no bucket covers,
// rates from 1 kHz to 20 MHz, n from 2 to 1024 — the runs are exactly the
// maximal stretches of bins bucketOf puts in one in-band bucket, and each
// run's occupied count is its bins at or above the threshold.
func TestRunsMatchBucketOf(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	bands := [][3]float64{{470e6, 698e6, 1e6}, {470e6, 698.4e6, 1e6}, {470e6, 698.6e6, 1e6}, {100e6, 100.5e6, 1e6}, {88e6, 108e6, 25e3}, {1e3, 2e3, 7}}
	for trial := 0; trial < 5000; trial++ {
		band := bands[rng.Intn(len(bands))]
		g, err := NewGrid(GridConfig{LowHz: band[0], HighHz: band[1], BucketHz: band[2]})
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + rng.Intn(1023)
		rate := math.Pow(10, 3+rng.Float64()*(math.Log10(20e6)-3))
		var centre float64
		switch edge := band[rng.Intn(2)]; rng.Intn(3) {
		case 0: // across a band edge
			centre = edge + rate*(rng.Float64()-0.5)
		case 1: // anywhere in or near the band
			centre = band[0] - rate + (band[1]-band[0]+2*rate)*rng.Float64()
		default: // a bucket edge inside the band
			centre = band[0] + band[2]*float64(rng.Intn(g.buckets+1))
		}
		frameLo, binWidth, err := g.place(n, centre, rate)
		if err != nil {
			continue
		}
		power := make([]float64, n)
		for i := range power {
			power[i] = rng.Float64()
		}
		hi := rng.Float64()

		var want []bucketRun
		for i := 0; i < n; i++ {
			b := g.bucketOf(frameLo, binWidth, i)
			if b < 0 || b >= g.buckets {
				continue
			}
			if len(want) == 0 || want[len(want)-1].b != b || want[len(want)-1].i1 != i {
				want = append(want, bucketRun{b: b, i0: i, i1: i})
			}
			r := &want[len(want)-1]
			r.i1++
			if power[i] >= hi {
				r.occ++
			}
		}
		got, occupied := g.runs(nil, power, hi, frameLo, binWidth)
		total := 0
		for _, r := range want {
			total += r.occ
		}
		if len(got) != len(want) || occupied != total {
			t.Fatalf("trial %d (n=%d rate=%g centre=%g band=%v): runs %v (occupied %d), per-bin map %v (occupied %d)", trial, n, rate, centre, band, got, occupied, want, total)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d (n=%d rate=%g centre=%g band=%v): run %d is %+v, per-bin map %+v", trial, n, rate, centre, band, k, got[k], want[k])
			}
		}
	}
}

// TestFoldPowerGuardEdges pins the edges of the power path's own checks
// on bench-like frames: a NaN bin hands the frame to Fold; so does a
// second bin on either edge of the floor's guard band, and one ulp outside
// that band it does not. Either way the surface is Fold's.
func TestFoldPowerGuardEdges(t *testing.T) {
	power, centres := benchFrames(t, 16, 256)
	at := time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC)
	got, _ := NewGrid(GridConfig{})
	want, _ := NewGrid(GridConfig{})
	for k, frame := range power {
		floor, _ := thresholdOf(frame, 6)
		lowest, highest := 0, 0
		for i, p := range frame {
			if p < frame[lowest] {
				lowest = i
			}
			if p > frame[highest] {
				highest = i
			}
		}
		// Replacing the highest bin by one above the floor, or the lowest
		// by one below it, leaves the floor where it was.
		fl, fh := floor*(1-powerGuard), floor*(1+powerGuard)
		for _, c := range []struct {
			bin    int
			value  float64
			toFold bool
		}{
			{highest, math.NaN(), true},
			{highest, fh, true},
			{highest, math.Nextafter(fh, math.Inf(1)), false},
			{lowest, fl, true},
			{lowest, math.Nextafter(fl, 0), false},
		} {
			edited := append([]float64(nil), frame...)
			edited[c.bin] = c.value
			if viaDB := foldBoth(t, got, want, edited, centres[k], 2.4e6, at); viaDB != c.toFold {
				t.Fatalf("frame %d, bin %d set to %v (floor %v): handed to Fold %v, want %v", k, c.bin, c.value, floor, viaDB, c.toFold)
			}
		}
	}
	sameSurface(t, got, want)
}
