package stream

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sensorcal/internal/dsp"
	"sensorcal/internal/spectrum"
)

// Grid is the fleet-wide aggregation the streaming service sells: a
// time×frequency occupancy surface. Frequency is split into fixed-width
// buckets across a configured band; time into a ring of slots, so memory
// is bounded however long the service runs (old slots are overwritten in
// place). Every processed frame folds in as "which buckets carried
// signal above the noise floor", and GET /api/occupancy serves the
// bucket fractions — the "Open and Big Spectrum Data" aggregation API
// shape from PAPERS.md.
type Grid struct {
	cfg         GridConfig
	buckets     int
	slotSec     int64
	marginRatio float64 // 10^(MarginDB/10): the occupancy margin as a power ratio
	slots       []gridSlot
}

// GridConfig shapes a Grid.
type GridConfig struct {
	// LowHz/HighHz bound the monitored band. Defaults: the UHF TV band,
	// 470–698 MHz.
	LowHz, HighHz float64
	// BucketHz is the frequency bucket width. Zero means 1 MHz.
	BucketHz float64
	// Slots is the ring length of slotWidth buckets. Zero means 60 (10
	// minutes of history).
	Slots int
	// MarginDB is the occupancy threshold above the per-frame noise
	// floor. Zero means 6 dB.
	MarginDB float64
}

func (c *GridConfig) fill() {
	if c.LowHz == 0 && c.HighHz == 0 {
		c.LowHz, c.HighHz = 470e6, 698e6
	}
	if c.BucketHz <= 0 {
		c.BucketHz = 1e6
	}
	if c.Slots <= 0 {
		c.Slots = 60
	}
	if c.MarginDB <= 0 {
		c.MarginDB = 6
	}
}

// gridSlot is one time bucket: per-frequency-bucket counts of occupied
// and total bins, plus how many frames contributed. Each slot carries
// its own lock, which keeps a query's sweep of old slots off the folds —
// but not the folds off each other: every live frame lands on the
// current slot for a whole Slot (10 s), so that one mutex is shared by
// all of them. Nothing that can be computed outside it runs under it,
// and nothing that can panic: a lock left held by a recovered panic
// would stop every later fold and query.
type gridSlot struct {
	mu       sync.Mutex
	startSec int64
	frames   uint64
	occ      []uint32
	bins     []uint32
	_        [24]byte
}

// slotWidth is the grid's time bucket width.
const slotWidth = 10 * time.Second

// ErrOutOfBand is returned for frames that do not overlap the grid's
// monitored band at all; the service counts them as shed, not failed.
var ErrOutOfBand = errors.New("stream: frame outside the monitored band")

// NewGrid returns a grid for the configured band.
func NewGrid(cfg GridConfig) (*Grid, error) {
	cfg.fill()
	if cfg.HighHz <= cfg.LowHz {
		return nil, fmt.Errorf("stream: grid band [%g,%g) is empty", cfg.LowHz, cfg.HighHz)
	}
	nb := int((cfg.HighHz-cfg.LowHz)/cfg.BucketHz + 0.5)
	if nb < 1 {
		nb = 1
	}
	if nb > 1<<20 {
		return nil, fmt.Errorf("stream: %d frequency buckets (band too wide for bucket width %g)", nb, cfg.BucketHz)
	}
	g := &Grid{cfg: cfg, buckets: nb, slotSec: int64(slotWidth / time.Second),
		marginRatio: math.Pow(10, cfg.MarginDB/10), slots: make([]gridSlot, cfg.Slots)}
	for i := range g.slots {
		g.slots[i].occ = make([]uint32, nb)
		g.slots[i].bins = make([]uint32, nb)
	}
	return g, nil
}

// Config returns the grid's (filled) configuration.
func (g *Grid) Config() GridConfig { return g.cfg }

// place validates a frame's position on the spectrum and returns its
// lower edge and bin width.
func (g *Grid) place(n int, centerHz, sampleRate float64) (frameLo, binWidth float64, err error) {
	if n == 0 || !finitePositive(sampleRate) || !finite(centerHz) {
		return 0, 0, fmt.Errorf("stream: frame of %d bins, centre %v Hz, rate %v Hz", n, centerHz, sampleRate)
	}
	frameLo = centerHz - sampleRate/2
	if frameLo >= g.cfg.HighHz || frameLo+sampleRate <= g.cfg.LowHz {
		return 0, 0, ErrOutOfBand
	}
	return frameLo, sampleRate / float64(n), nil
}

// bucketOf returns the frequency bucket bin i of a placed frame counts
// in: -1 below the monitored band and g.buckets above it, so that over a
// frame's bins it is non-decreasing.
func (g *Grid) bucketOf(frameLo, binWidth float64, i int) int {
	hz := frameLo + (float64(i)+0.5)*binWidth
	if hz < g.cfg.LowHz {
		return -1
	}
	if hz >= g.cfg.HighHz {
		return g.buckets
	}
	return min(int((hz-g.cfg.LowHz)/g.cfg.BucketHz), g.buckets)
}

// lockSlot returns the ring slot of at, locked, reset in place if the
// ring lapped (the slot last held an older, or a future backfilled,
// window).
func (g *Grid) lockSlot(at time.Time) *gridSlot {
	slotStart := at.Unix() / g.slotSec * g.slotSec
	idx := (slotStart / g.slotSec) % int64(len(g.slots))
	if idx < 0 {
		idx += int64(len(g.slots))
	}
	sl := &g.slots[idx]
	sl.mu.Lock()
	if sl.startSec != slotStart {
		sl.startSec = slotStart
		sl.frames = 0
		for i := range sl.occ {
			sl.occ[i] = 0
			sl.bins[i] = 0
		}
	}
	return sl
}

// Fold accumulates one frame's occupancy into the grid and returns the
// frame's occupied-bin fraction (for the per-session aggregate). bins
// are ascending-frequency dBFS as Engine.Process produces; centerHz and
// sampleRate place them on the spectrum; at selects the time slot. Fold
// is the definition of the surface; FoldPower is the path the service
// takes to the same counts.
func (g *Grid) Fold(bins []float64, centerHz, sampleRate float64, at time.Time) (float64, error) {
	n := len(bins)
	frameLo, binWidth, err := g.place(n, centerHz, sampleRate)
	if err != nil {
		return 0, err
	}
	floor := spectrum.NoiseFloorOf(bins, 0.25)
	threshold := floor + g.cfg.MarginDB

	sl := g.lockSlot(at)
	defer sl.mu.Unlock()
	sl.frames++
	occupied := 0
	for i := 0; i < n; i++ {
		b := g.bucketOf(frameLo, binWidth, i)
		if b < 0 || b == g.buckets {
			continue
		}
		sl.bins[b]++
		if bins[i] >= threshold {
			sl.occ[b]++
			occupied++
		}
	}
	return float64(occupied) / float64(n), nil
}

// powerGuard is the relative half-width of the band around the linear
// threshold (and the floor) inside which FoldPower does not trust its own
// comparison. Fold's side of the inequality carries the rounding of two
// logarithms and a sum, under 1e-11 dB for any finite power, which is a
// relative 3e-12 in power; the guard is three hundred times that.
const powerGuard = 1e-9

// bucketRun is one frame's bins [i0, i1) in bucket b, occ of them occupied.
type bucketRun struct{ b, i0, i1, occ int }

// runs appends a placed frame's bucket runs to dst, counting each run's
// bins at or above hi, and returns the total. bucketOf is non-decreasing
// over the bins, so a run ends where a bisection of the bins after its
// start says: log₂ n calls of it per bucket, not one per bin.
func (g *Grid) runs(dst []bucketRun, power []float64, hi, frameLo, binWidth float64) ([]bucketRun, int) {
	n, occupied := len(power), 0
	for i := 0; i < n; {
		b := g.bucketOf(frameLo, binWidth, i)
		j := i + sort.Search(n-i, func(k int) bool { return g.bucketOf(frameLo, binWidth, i+k) != b })
		if b >= 0 && b < g.buckets {
			occ := 0
			for _, p := range power[i:j] {
				occ += b2i(p >= hi)
			}
			dst = append(dst, bucketRun{b, i, j, occ})
			occupied += occ
		}
		i = j
	}
	return dst, occupied
}

// FoldPower is Fold for ascending-frequency linear power as
// Engine.ProcessPower produces: it leaves the surface and returns the
// fraction Fold does over the bins' dBFS image, without computing it.
// The floor is the same order statistic (it commutes with a
// non-decreasing map) and the threshold is floor × 10^(MarginDB/10).
// One pass over every bin counts the bins the linear comparison cannot
// decide with powerGuard to spare and those that close to the floor, one
// per bucket run counts its occupied bins, neither branches on a bin, and
// the slot mutex covers one add per run. A frame with an undecided bin
// (a NaN among them), a second bin at the floor, or a floor that is zero,
// subnormal or too large to scale is handed to Fold as dBFS, and viaDB
// reports it. The path depends on the frame's bins alone. DESIGN §15.
func (g *Grid) FoldPower(power []float64, centerHz, sampleRate float64, at time.Time) (frac float64, viaDB bool, err error) {
	n := len(power)
	frameLo, binWidth, err := g.place(n, centerHz, sampleRate)
	if err != nil {
		return 0, false, err
	}
	floor := spectrum.NoiseFloorOf(power, 0.25)
	hi := floor * g.marginRatio * (1 + powerGuard)
	lo := floor * g.marginRatio * (1 - powerGuard)
	und, atFloor := 0, 0
	if floor >= 0x1p-1022 && !math.IsInf(hi, 1) {
		// Bits order like values on [fl, +Inf); other patterns wrap past span.
		fl := math.Float64bits(floor * (1 - powerGuard))
		span := math.Float64bits(floor*(1+powerGuard)) - fl
		for _, p := range power {
			und += b2i(!(p < lo)) - b2i(p >= hi) // a NaN counts
			atFloor += b2i(math.Float64bits(p)-fl <= span)
		}
	}
	if und != 0 || atFloor != 1 {
		db := dsp.GetFloat(n)
		defer dsp.PutFloat(db)
		powerToDBFS(db, power)
		frac, err = g.Fold(db, centerHz, sampleRate, at)
		return frac, true, err
	}

	var few [8]bucketRun // a 2.4 MHz frame over 1 MHz buckets touches 3 or 4
	runs, occupied := g.runs(few[:0], power, hi, frameLo, binWidth)
	sl := g.lockSlot(at)
	defer sl.mu.Unlock()
	sl.frames++
	for _, r := range runs {
		sl.bins[r.b] += uint32(r.i1 - r.i0)
		sl.occ[r.b] += uint32(r.occ)
	}
	return float64(occupied) / float64(n), false, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SlotOccupancy is one time slot of one band query.
type SlotOccupancy struct {
	Start  time.Time `json:"start"`
	Frames uint64    `json:"frames"`
	// Occupancy is the occupied-bin fraction per frequency bucket of the
	// queried band, ascending frequency. Buckets no frame covered are 0.
	Occupancy []float64 `json:"occupancy"`
}

// BandOccupancy is the /api/occupancy response body.
type BandOccupancy struct {
	LowHz    float64         `json:"low_hz"`
	HighHz   float64         `json:"high_hz"`
	BucketHz float64         `json:"bucket_hz"`
	SlotS    float64         `json:"slot_s"`
	Slots    []SlotOccupancy `json:"slots"`
}

// Query returns the occupancy surface for [lowHz, highHz), every
// non-empty time slot ascending by start. A query outside the grid band
// is clamped; an empty intersection or a non-finite bound errors.
func (g *Grid) Query(lowHz, highHz float64) (*BandOccupancy, error) {
	if !finite(lowHz) || !finite(highHz) {
		// Every clamp below compares false against NaN, and int(NaN)
		// would index the slot's counts.
		return nil, fmt.Errorf("stream: band [%g,%g) is not finite", lowHz, highHz)
	}
	if lowHz < g.cfg.LowHz {
		lowHz = g.cfg.LowHz
	}
	if highHz > g.cfg.HighHz {
		highHz = g.cfg.HighHz
	}
	if highHz <= lowHz {
		return nil, fmt.Errorf("stream: band [%g,%g) does not intersect the monitored band [%g,%g)",
			lowHz, highHz, g.cfg.LowHz, g.cfg.HighHz)
	}
	b0 := int((lowHz - g.cfg.LowHz) / g.cfg.BucketHz)
	if b0 >= g.buckets {
		b0 = g.buckets - 1 // the band's last bucket may be wider than BucketHz
	}
	b1 := int((highHz-g.cfg.LowHz)/g.cfg.BucketHz + 0.999999)
	if b1 > g.buckets {
		b1 = g.buckets
	}
	if b1 <= b0 {
		b1 = b0 + 1
	}
	out := &BandOccupancy{
		LowHz:    g.cfg.LowHz + float64(b0)*g.cfg.BucketHz,
		HighHz:   g.cfg.LowHz + float64(b1)*g.cfg.BucketHz,
		BucketHz: g.cfg.BucketHz,
		SlotS:    float64(g.slotSec),
	}
	w := b1 - b0
	counts := make([]uint32, 2*w) // one slot's occ then bins, copied out under its lock
	for i := range g.slots {
		startSec, frames := g.slots[i].snapshot(counts, b0, b1)
		if startSec == 0 || frames == 0 {
			continue
		}
		so := SlotOccupancy{Start: time.Unix(startSec, 0).UTC(), Frames: frames, Occupancy: make([]float64, w)}
		for b, total := range counts[w:] {
			if total > 0 {
				so.Occupancy[b] = float64(counts[b]) / float64(total)
			}
		}
		out.Slots = append(out.Slots, so)
	}
	sort.Slice(out.Slots, func(i, j int) bool { return out.Slots[i].Start.Before(out.Slots[j].Start) })
	return out, nil
}

// snapshot copies the slot's occ and bins counts of buckets [b0, b1)
// into dst (occ first) unless the slot is empty, and returns its start
// and frame count.
func (sl *gridSlot) snapshot(dst []uint32, b0, b1 int) (startSec int64, frames uint64) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.frames != 0 {
		copy(dst, sl.occ[b0:b1])
		copy(dst[b1-b0:], sl.bins[b0:b1])
	}
	return sl.startSec, sl.frames
}
