package spectrum

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sensorcal/internal/dsp"
)

// TestNoiseFloorMatchesSortReference pins the quickselect floor to the
// full-sort definition: for any input, NoiseFloorOf must return exactly
// the element an ascending sort leaves at index k/2 of the quietest
// fraction — same value, same bits.
func TestNoiseFloorMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []func(i, n int) float64{
		func(i, n int) float64 { return rng.NormFloat64()*8 - 90 },           // noise
		func(i, n int) float64 { return -120 + float64(i)/float64(n)*40 },    // ascending ramp
		func(i, n int) float64 { return -80 - float64(i)/float64(n)*40 },     // descending ramp
		func(i, n int) float64 { return -100 },                               // constant
		func(i, n int) float64 { return -100 + 30*float64(i%2) },             // alternating
		func(i, n int) float64 { return -100 + 60*math.Sin(float64(i)/7.3) }, // tones
	}
	for _, n := range []int{1, 2, 3, 7, 64, 256, 1024} {
		for si, shape := range shapes {
			bins := make([]float64, n)
			for i := range bins {
				bins[i] = shape(i, n)
			}
			for _, frac := range []float64{0.1, 0.25, 0.5, 1} {
				ref := append([]float64(nil), bins...)
				sort.Float64s(ref)
				k := int(float64(n) * frac)
				if k < 1 {
					k = 1
				}
				want := ref[k/2]
				got := NoiseFloorOf(bins, frac)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("n=%d shape=%d frac=%g: floor=%v, sort reference=%v", n, si, frac, got, want)
				}
			}
		}
	}
}

// benchPowerFrames returns count distinct linear-power frames shaped like
// the stream benchmark's: a 0.4-amplitude tone on a bin a quarter band
// off centre, at a random phase, over uniform noise of ±0.01 per
// component, Hann-windowed, |FFT|². Cycling over distinct frames keeps
// the branch predictor from learning one of them.
func benchPowerFrames(count, n int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	win := dsp.Hann(n)
	frames := make([][]float64, count)
	for f := range frames {
		tone, phase := float64(n/4+rng.Intn(n/8)), 2*math.Pi*rng.Float64()
		spec := make([]complex128, n)
		for i := range spec {
			arg := 2*math.Pi*tone*float64(i)/float64(n) + phase
			spec[i] = complex(0.4*math.Cos(arg)+0.02*(rng.Float64()-0.5), 0.4*math.Sin(arg)+0.02*(rng.Float64()-0.5)) * complex(win[i], 0)
		}
		if err := dsp.FFT(spec); err != nil {
			panic(err)
		}
		frames[f] = make([]float64, n)
		for i, s := range spec {
			frames[f][i] = real(s)*real(s) + imag(s)*imag(s)
		}
	}
	return frames
}

func BenchmarkNoiseFloorOf(b *testing.B) {
	frames := benchPowerFrames(64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NoiseFloorOf(frames[i%len(frames)], 0.25)
	}
}

// FuzzNoiseFloor holds NoiseFloorOf to the copy-and-quickselect body it
// replaced (oracleNoiseFloorOf) over arbitrary bit patterns — NaN, ±Inf,
// subnormals, ±0 — 1 to 1024 bins and quiet fractions in (0, 1]: the
// same bits on every NaN-free frame, bar the sign of a zero floor, and
// exactly the oracle's answer on a frame with a NaN.
func FuzzNoiseFloor(f *testing.F) {
	add := func(bins []float64, q uint16) {
		raw := make([]byte, 8*len(bins))
		for i, v := range bins {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		f.Add(raw, q)
	}
	for i, frame := range benchPowerFrames(4, 256) {
		add(frame, uint16(256*i+255))
	}
	rng := rand.New(rand.NewSource(34))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1074, -0x1p-1060, 0, math.Copysign(0, -1)}
	for _, n := range []int{1, 63, 64, 100, 1024} {
		bins := make([]float64, n)
		for i := range bins {
			bins[i] = rng.ExpFloat64()
			if rng.Intn(8) == 0 {
				bins[i] = special[1+rng.Intn(len(special)-1)]
			}
		}
		add(bins, uint16(rng.Intn(1024)))
		bins[rng.Intn(n)] = math.NaN()
		add(bins, 255)
	}
	f.Fuzz(func(t *testing.T, raw []byte, q uint16) {
		bins := make([]float64, min(len(raw)/8, 1024))
		if len(bins) == 0 {
			return
		}
		hasNaN := false
		for i := range bins {
			bins[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			hasNaN = hasNaN || math.IsNaN(bins[i])
		}
		frac := float64(q%1024+1) / 1024
		before := append([]float64(nil), bins...)
		got, want := NoiseFloorOf(bins, frac), oracleNoiseFloorOf(bins, frac)
		same := math.Float64bits(got) == math.Float64bits(want) || (!hasNaN && got == 0 && want == 0)
		if !same {
			t.Fatalf("%d bins (NaN %v), fraction %g: floor %v (%#x), oracle %v (%#x)", len(bins), hasNaN, frac, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for i := range bins {
			if math.Float64bits(bins[i]) != math.Float64bits(before[i]) {
				t.Fatalf("NoiseFloorOf wrote to its input at bin %d", i)
			}
		}
	})
}
