package main

import (
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"sensorcal/internal/trust"
)

// Input generation. Everything the program under test sees is derived
// from the seed: which node sends next, how big its batch is, what the
// transmitters did in each window and what each node measured. Only the
// wall-clock timestamps of the closed-loop workloads are not, because
// the collector's epoch windows are wall-clock windows.

// rng is splitmix64: small, fast and reproducible across Go versions.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix hashes its arguments into one stream seed, so independent streams
// (per client, per neighbourhood and window) never share state.
func mix(vals ...uint64) rng {
	h := rng(0x243f6a8885a308d3)
	for _, v := range vals {
		h = rng(h.next() ^ v)
	}
	return h
}

// fleet is the synthetic sensor network of the trust workloads:
// neighbourhoods of nodes that hear the same signals.
type fleet struct {
	seed       uint64
	nodes      []trust.NodeID
	hoodOf     []int      // node → neighbourhood
	signals    [][]string // neighbourhood → signal ids
	perHood    int
	offsetDB   []float64 // node → fixed attenuation (indoor placement)
	fabricator []fabKind // node → how it lies, if it does
	fabDBm     []float64 // node → the constant a fabricator reports
}

type fabKind uint8

const (
	honest fabKind = iota
	// inflator reports a constant saturated power. The loudest of them
	// trips the upper-bound check in every epoch; the others hide in its
	// shadow (the bound is leave-one-out over the maximum) and are caught
	// by the correlation check, which treats a flat series as r = 0.
	inflator
	// flatliner reports a constant plausible power: invisible to the
	// upper-bound check, uncorrelated with the transmitter by definition
	// ("fabricators often submit constants", trust/consensus.go).
	flatliner
)

// newFleet builds hoods neighbourhoods of perHood nodes hearing
// signalsPerHood signals each. Signal names follow agentd's
// "tv-<MHz>MHz" form, prefixed by neighbourhood when there are several.
func newFleet(seed uint64, hoods, perHood, signalsPerHood int) *fleet {
	f := &fleet{seed: seed, perHood: perHood}
	r := mix(seed, 0xf1ee7)
	for h := 0; h < hoods; h++ {
		sigs := make([]string, signalsPerHood)
		for s := range sigs {
			mhz := 473 + 6*s // the UHF TV raster
			if hoods > 1 {
				sigs[s] = fmt.Sprintf("nb%02d-tv-%dMHz", h, mhz)
			} else {
				sigs[s] = fmt.Sprintf("tv-%dMHz", mhz)
			}
		}
		f.signals = append(f.signals, sigs)
		for n := 0; n < perHood; n++ {
			f.nodes = append(f.nodes, trust.NodeID(fmt.Sprintf("node-%04d", h*perHood+n)))
			f.hoodOf = append(f.hoodOf, h)
			// Up to 3 dB of indoor attenuation: with ±1 dB of noise the
			// least obstructed node of a four-node neighbourhood stays
			// inside the detector's 6 dB margin over its peers.
			f.offsetDB = append(f.offsetDB, -3*r.float())
		}
	}
	f.fabricator = make([]fabKind, len(f.nodes))
	f.fabDBm = make([]float64, len(f.nodes))
	return f
}

// injectFabricators marks n nodes of each kind, chosen by the seed.
func (f *fleet) injectFabricators(n int) (inflators, flatliners []int) {
	r := mix(f.seed, 0xfab)
	pick := func(k fabKind, dbm func(rank int) float64) []int {
		var out []int
		for len(out) < n {
			i := int(r.next() % uint64(len(f.nodes)))
			if f.fabricator[i] == honest {
				f.fabricator[i] = k
				f.fabDBm[i] = dbm(len(out))
				out = append(out, i)
			}
		}
		return out
	}
	// Inflators sit 8 dB apart, more than the detector's 6 dB margin, so
	// the loudest always clears the others.
	inflators = pick(inflator, func(rank int) float64 { return -10 - 8*float64(rank) })
	flatliners = pick(flatliner, func(rank int) float64 { return -60 - 3*float64(rank) })
	return inflators, flatliners
}

// trendDB is what the transmitter of signal sig in neighbourhood hood did
// in window w: a level plus a per-window fluctuation of ±6 dB that every
// honest node tracks. A pure function, so clients need no shared state.
func (f *fleet) trendDB(hood, sig int, w int64) float64 {
	level := mix(f.seed, uint64(hood), uint64(sig))
	fluct := mix(f.seed, uint64(hood), uint64(sig), uint64(w))
	return -75 + 30*level.float() + 12*fluct.float() - 6
}

// powerDBm is node's reading of its sig-th signal in window w; noise is
// the measurement noise draw in [0,1).
func (f *fleet) powerDBm(node, sig int, w int64, noise float64) float64 {
	if f.fabricator[node] != honest {
		return f.fabDBm[node]
	}
	return f.trendDB(f.hoodOf[node], sig, w) + f.offsetDB[node] + 2*noise - 1
}

// Wire form. trust.Client spools each reading as the JSON of its
// submitRequest and ships a batch as the array of those payloads, so the
// body is `[{"node":…,"signal_id":…,"power_dbm":…,"at":…,"key":…,
// "trace":…},…]` with encoding/json's formats. appendReading writes the
// same bytes without reflection; wire_test.go pins it against a real
// trust.Client.

func appendReading(b []byte, r *trust.Reading) []byte {
	b = append(b, `{"node":"`...)
	b = append(b, r.Node...)
	b = append(b, `","signal_id":"`...)
	b = append(b, r.SignalID...)
	b = append(b, `","power_dbm":`...)
	b = strconv.AppendFloat(b, r.PowerDBm, 'f', -1, 64)
	b = append(b, `,"at":"`...)
	b = r.At.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","key":"`...)
	b = append(b, r.Key...)
	b = append(b, `","trace":"`...)
	b = append(b, r.Trace...)
	b = append(b, `"}`...)
	return b
}

func appendBatch(b []byte, rs []trust.Reading) []byte {
	b = append(b, '[')
	for i := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendReading(b, &rs[i])
	}
	return append(b, ']')
}

// traceParent renders a sampled W3C traceparent from the stream, as an
// agent at its default -trace-sample 1 attaches to every reading.
func traceParent(r *rng) string {
	var raw [24]byte
	for i := 0; i < 24; i += 8 {
		v := r.next() | 1 // ids must not be all zero
		for k := 0; k < 8; k++ {
			raw[i+k] = byte(v >> (8 * k))
		}
	}
	var out [55]byte
	copy(out[:], "00-")
	hex.Encode(out[3:35], raw[:16])
	out[35] = '-'
	hex.Encode(out[36:52], raw[16:])
	copy(out[52:], "-01")
	return string(out[:])
}

// requestPlan is one closed-loop request before it gets its timestamps:
// which node sends and how many measurement rounds it batches.
type requestPlan struct {
	node   int
	rounds int
}

// ingestPlanner deals requests to one client. Three in four carry one
// measurement round, one in four carries ten, so about three quarters of
// requests are small and three quarters of readings arrive in big
// batches: both per-request and per-reading cost show.
type ingestPlanner struct {
	f *fleet
	r rng
}

func newIngestPlanner(f *fleet, client int) *ingestPlanner {
	return &ingestPlanner{f: f, r: mix(f.seed, 0xc11e47, uint64(client))}
}

func (p *ingestPlanner) next() requestPlan {
	v := p.r.next()
	plan := requestPlan{node: int(v % uint64(len(p.f.nodes))), rounds: 1}
	if (v>>40)%4 == 0 {
		plan.rounds = 10
	}
	return plan
}

// fill turns a plan into readings stamped at now. Rounds of one batch are
// 100 µs apart, newest first, so their idempotency keys differ while all
// of them fall into the current window (bar the first millisecond of it).
func (p *ingestPlanner) fill(dst []trust.Reading, plan requestPlan, now time.Time, window time.Duration) []trust.Reading {
	f := p.f
	sigs := f.signals[f.hoodOf[plan.node]]
	dst = dst[:0]
	for k := 0; k < plan.rounds; k++ {
		at := now.Add(-time.Duration(k) * 100 * time.Microsecond)
		w := at.UnixNano() / int64(window)
		trace := traceParent(&p.r)
		for s, sig := range sigs {
			r := trust.Reading{
				Node:     f.nodes[plan.node],
				SignalID: sig,
				PowerDBm: f.powerDBm(plan.node, s, w, p.r.float()),
				At:       at,
				Trace:    trace,
			}
			r.Key = trust.ReadingKey(r)
			dst = append(dst, r)
		}
	}
	return dst
}

// backlogWindow returns window w of the spooled evidence of a dense
// metro: every (node, signal) pair exactly once, in a seeded order,
// stamped inside the window.
func backlogWindow(f *fleet, base time.Time, w int, window time.Duration) []trust.Reading {
	r := mix(f.seed, 0xbac106, uint64(w))
	sigs := f.signals[0]
	out := make([]trust.Reading, 0, len(f.nodes)*len(sigs))
	start := base.Add(time.Duration(w) * window)
	for n := range f.nodes {
		trace := traceParent(&r)
		for s, sig := range sigs {
			rd := trust.Reading{
				Node:     f.nodes[n],
				SignalID: sig,
				PowerDBm: f.powerDBm(n, s, int64(w), r.float()),
				At:       start.Add(time.Duration(r.next() % uint64(window/2))),
				Trace:    trace,
			}
			rd.Key = trust.ReadingKey(rd)
			out = append(out, rd)
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Stream inputs: one IQ frame per sensor, a tone over noise, placed on
// the UHF band the service monitors.

const (
	streamBandLo     = 470e6
	streamBandHi     = 698e6
	streamSampleRate = 2.4e6
)

type sensor struct {
	id       string
	centerHz float64
	toneHz   float64 // absolute frequency of the injected tone
	iq       []complex128
}

func newSensors(seed uint64, n, fft int) []sensor {
	out := make([]sensor, n)
	span := streamBandHi - streamBandLo - streamSampleRate
	for i := range out {
		r := mix(seed, 0x5e4507, uint64(i))
		s := &out[i]
		s.id = fmt.Sprintf("sensor-%05d", i)
		s.centerHz = streamBandLo + streamSampleRate/2 + span*r.float()
		// A tone on an exact bin centre, a quarter band off centre.
		bin := fft/4 + int(r.next()%uint64(fft/8))
		s.toneHz = s.centerHz + float64(bin)*streamSampleRate/float64(fft)
		s.iq = make([]complex128, fft)
		phase := 2 * math.Pi * r.float()
		for k := range s.iq {
			arg := 2*math.Pi*float64(bin)*float64(k)/float64(fft) + phase
			nI, nQ := r.float()-0.5, r.float()-0.5
			s.iq[k] = complex(0.4*math.Cos(arg)+0.02*nI, 0.4*math.Sin(arg)+0.02*nQ)
		}
	}
	return out
}
