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
