package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorcal/internal/obs"
)

func testConfig() Config {
	return Config{
		FFTSize:  64,
		QueueCap: 256,
		MaxBatch: 16,
		Workers:  2,
		Registry: obs.NewRegistry(),
		Grid:     GridConfig{LowHz: 500e6, HighHz: 700e6},
	}
}

// waitIdle waits until every accepted frame has been processed.
func waitIdle(t *testing.T, s *Service, accepted *int64, done *int64, mu *sync.Mutex) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		ok := *done >= *accepted
		mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("frames not drained in time")
}

// TestServiceEndToEnd drives frames through ingest → batch FFT → grid
// and checks the occupancy query sees the carrier.
func TestServiceEndToEnd(t *testing.T) {
	s, err := NewService(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var mu sync.Mutex
	var accepted, doneN int64
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		frame := randFrame(64, int64(i))
		err := s.Ingest(IngestFrame{
			Sensor:     fmt.Sprintf("sensor-%d", i%20),
			At:         at,
			CenterHz:   600e6,
			SampleRate: 2.4e6,
			IQ:         frame,
			Done: func() {
				mu.Lock()
				doneN++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		mu.Lock()
		accepted++
		mu.Unlock()
	}
	waitIdle(t, s, &accepted, &doneN, &mu)

	if got := s.Sessions().Len(); got != 20 {
		t.Fatalf("sessions = %d, want 20", got)
	}
	occ, err := s.Grid().Query(590e6, 610e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(occ.Slots) == 0 {
		t.Fatal("occupancy empty after 200 folded frames")
	}
	var frames uint64
	anyOccupied := false
	for _, sl := range occ.Slots {
		frames += sl.Frames
		for _, f := range sl.Occupancy {
			if f > 0 {
				anyOccupied = true
			}
		}
	}
	if frames != 200 {
		t.Fatalf("grid folded %d frames, want 200", frames)
	}
	if !anyOccupied {
		t.Fatal("tone frames produced zero occupancy")
	}
	// Session aggregates moved too.
	st := s.Sessions().Get("sensor-0").Stats()
	if st.Frames != 10 || st.MeanOccupancy <= 0 {
		t.Fatalf("session aggregate: %+v", st)
	}
}

// TestIngestBackpressure pins every shed path: malformed, out-of-band,
// queue-full, session-limit.
func TestIngestBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = 4
	cfg.MaxSessions = 2
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stall the dispatcher so the queue actually fills: park it on a
	// fold that blocks until we release it.
	block := make(chan struct{})
	var hookOnce sync.Once
	s.foldHook = func() error {
		hookOnce.Do(func() { <-block })
		return nil
	}
	defer func() {
		close(block)
		s.Close()
	}()

	frame := randFrame(64, 1)
	good := func(sensor string) IngestFrame {
		return IngestFrame{Sensor: sensor, CenterHz: 600e6, SampleRate: 2.4e6, IQ: frame}
	}

	if err := s.Ingest(IngestFrame{Sensor: "a", CenterHz: 600e6, SampleRate: 2.4e6, IQ: frame[:10]}); err == nil {
		t.Fatal("short frame accepted")
	}
	if err := s.Ingest(IngestFrame{Sensor: "a", CenterHz: 100e6, SampleRate: 2.4e6, IQ: frame}); !errors.Is(err, ErrOutOfBand) {
		t.Fatalf("out-of-band: %v", err)
	}
	// Two sessions fit; the third is shed.
	if err := s.Ingest(good("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(good("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(good("c")); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("session limit: %v", err)
	}
	// Fill the queue. The parked dispatcher may have pulled up to one
	// batch out of it first, so allow QueueCap+MaxBatch accepts before
	// demanding overflow.
	overflowed := false
	for i := 0; i < cfg.QueueCap+cfg.MaxBatch+8; i++ {
		if err := s.Ingest(good("a")); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("overflow: %v", err)
			}
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatal("bounded queue never shed")
	}
	if err := s.Ingest(good("a")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue full: %v", err)
	}
}

// TestHTTPStreamAndOccupancy exercises the wire surface end to end:
// register, stream base64 frames, query occupancy and stats.
func TestHTTPStreamAndOccupancy(t *testing.T) {
	s, err := NewService(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path string, body interface{}) (*http.Response, []byte) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, _ := post("/api/stream/register", map[string]string{"id": "web-1"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}

	frames := make([]wireFrame, 10)
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := range frames {
		frames[i] = wireFrame{
			Sensor: "web-1", At: at, CenterHz: 600e6, SampleRate: 2.4e6,
			IQB64: EncodeIQ(randFrame(64, int64(i))),
		}
	}
	resp, body := post("/api/stream/frames", framesRequest{Frames: frames})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("frames: %d %s", resp.StatusCode, body)
	}
	var fr framesResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Accepted != 10 || fr.Shed != 0 {
		t.Fatalf("frames response: %+v", fr)
	}

	// Wait for the folds, then query.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Sessions().Get("web-1")
		if st != nil && st.Stats().Frames >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frames not folded")
		}
		time.Sleep(time.Millisecond)
	}
	r2, err := http.Get(srv.URL + "/api/occupancy?band=590e6:610e6")
	if err != nil {
		t.Fatal(err)
	}
	var occ BandOccupancy
	if err := json.NewDecoder(r2.Body).Decode(&occ); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || len(occ.Slots) == 0 {
		t.Fatalf("occupancy: %d slots=%d", r2.StatusCode, len(occ.Slots))
	}

	r3, err := http.Get(srv.URL + "/api/stream/stats?sensor=web-1")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(r3.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if st.Sessions < 1 || st.Sensor == nil || st.Sensor.Frames != 10 {
		t.Fatalf("stats: %+v", st)
	}

	// A malformed batch is rejected with 400, not silently dropped.
	resp, _ = post("/api/stream/frames", framesRequest{Frames: []wireFrame{
		{Sensor: "web-1", CenterHz: 600e6, SampleRate: 2.4e6, IQB64: "not-base64!"},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed frame: %d", resp.StatusCode)
	}
}

// TestHTTPShedStatuses pins the 429 mapping when the whole batch sheds
// on backpressure.
func TestHTTPShedStatuses(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 1
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if _, err := s.Register("only"); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(framesRequest{Frames: []wireFrame{{
		Sensor: "someone-else", CenterHz: 600e6, SampleRate: 2.4e6,
		IQB64: EncodeIQ(randFrame(64, 9)),
	}}})
	resp, err := http.Post(srv.URL+"/api/stream/frames", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("session-limit shed: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestEvictionAndReregistration pins the session lifecycle: idle
// sessions are swept, and an evicted sensor transparently re-registers
// on its next frame.
func TestEvictionAndReregistration(t *testing.T) {
	cfg := testConfig()
	cfg.IdleAfter = 10 * time.Millisecond
	cfg.SweepEvery = 2 * time.Millisecond
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Register("ephemeral"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Sessions().Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	if s.Sessions().Evicted() == 0 {
		t.Fatal("eviction counter did not move")
	}
	// The sensor comes back with a frame.
	if err := s.Ingest(IngestFrame{Sensor: "ephemeral", CenterHz: 600e6, SampleRate: 2.4e6, IQ: randFrame(64, 3)}); err != nil {
		t.Fatal(err)
	}
	if s.Sessions().Get("ephemeral") == nil {
		t.Fatal("sensor did not re-register on its next frame")
	}
}

// fleetFrame is the frame a bench sensor streams: a 0.4-amplitude tone a
// quarter band off centre over ±0.01 uniform noise.
func fleetFrame(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	bin := n/4 + rng.Intn(n/8)
	phase := 2 * math.Pi * rng.Float64()
	out := make([]complex128, n)
	for k := range out {
		arg := 2*math.Pi*float64(bin)*float64(k)/float64(n) + phase
		out[k] = complex(0.4*math.Cos(arg)+0.02*(rng.Float64()-0.5), 0.4*math.Sin(arg)+0.02*(rng.Float64()-0.5))
	}
	return out
}

// TestFleetFramesStayOnPowerPath runs a fleet's worth of ordinary
// tone-over-noise frames (one per sensor of a 10 000-sensor fleet, at the
// shipped FFT size and band) through the service: none of them may need
// the dB fallback, and the surface they leave is the one Engine.Process +
// Grid.Fold leave.
func TestFleetFramesStayOnPowerPath(t *testing.T) {
	const n, sensors, rate = 256, 10_000, 2.4e6
	s, err := NewService(Config{FFTSize: n, QueueCap: sensors, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, _ := NewGrid(GridConfig{})
	eng, _ := NewEngine(n, nil)
	bins := make([]float64, n)

	at := time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC)
	var folded sync.WaitGroup
	for i := 0; i < sensors; i++ {
		frame := fleetFrame(n, int64(i))
		centre := 470e6 + rate/2 + (228e6-rate)*float64(i)/sensors
		folded.Add(1)
		if err := s.Ingest(IngestFrame{
			Sensor: fmt.Sprintf("sensor-%05d", i), At: at, CenterHz: centre, SampleRate: rate, IQ: frame, Done: folded.Done,
		}); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if err := eng.Process([]Job{{IQ: frame, SampleRate: rate, Bins: bins}}); err != nil {
			t.Fatal(err)
		}
		if _, err := want.Fold(bins, centre, rate, at); err != nil {
			t.Fatal(err)
		}
	}
	folded.Wait()
	if got := s.m.framesDone.Value(); got != sensors {
		t.Fatalf("stream_frames_processed_total = %v, want %d", got, sensors)
	}
	if got := s.m.foldDBFallback.Value(); got != 0 {
		t.Fatalf("stream_fold_db_fallback_total = %v over ordinary frames, want 0", got)
	}
	sameSurface(t, s.Grid(), want)
}

// TestNonFiniteFramesRejectedAtTheDoor: NaN passes `<= 0` and every band
// comparison, so a frame with a non-finite rate, centre or IQ sample
// used to be transformed, folded as empty and counted as processed.
func TestNonFiniteFramesRejectedAtTheDoor(t *testing.T) {
	s, err := NewService(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frame := randFrame(64, 4)
	bad := []struct{ centre, rate float64 }{
		{600e6, math.NaN()}, {600e6, math.Inf(1)}, {600e6, math.Inf(-1)},
		{math.NaN(), 2.4e6}, {math.Inf(1), 2.4e6}, {math.Inf(-1), 2.4e6},
	}
	for _, b := range bad {
		err := s.Ingest(IngestFrame{Sensor: "a", CenterHz: b.centre, SampleRate: b.rate, IQ: frame})
		if err == nil || errors.Is(err, ErrOutOfBand) {
			t.Fatalf("Ingest(centre %v, rate %v) = %v, want a malformed-frame error", b.centre, b.rate, err)
		}
		if b.centre == 600e6 {
			job := []Job{{IQ: frame, SampleRate: b.rate, Bins: make([]float64, 64)}}
			if s.engine.Process(job) == nil || s.engine.ProcessPower(job) == nil {
				t.Fatalf("engine accepted sample rate %v", b.rate)
			}
		}
	}
	if got := s.m.framesShed.With(shedMalformed).Value(); got != float64(len(bad)) {
		t.Fatalf("shed malformed = %v, want %d", got, len(bad))
	}
	if got := s.m.framesIngested.Value(); got != 0 {
		t.Fatalf("%v non-finite frames were accepted", got)
	}

	// Over HTTP a non-finite number cannot survive the JSON decode; what
	// can be spelled is answered 400 either way.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, num := range []string{"NaN", "1e999", "-1e999"} {
		body := fmt.Sprintf(`{"frames":[{"sensor":"a","center_hz":600e6,"sample_rate":%s,"iq_b64":%q}]}`, num, EncodeIQ(frame))
		resp, err := http.Post(srv.URL+"/api/stream/frames", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("sample_rate %s over HTTP: %d, want 400", num, resp.StatusCode)
		}
	}

	// A NaN or ±Inf IQ sample, which JSON cannot stop since it travels as
	// float32 bits in base64, would make every bin NaN and the frame read
	// as unoccupied. It is shed as malformed; the body's finite frame lands.
	frameJSON := func(iq []complex128) string {
		return fmt.Sprintf(`{"sensor":"a","center_hz":600e6,"sample_rate":2.4e6,"iq_b64":%q}`, EncodeIQ(iq))
	}
	frames := []string{frameJSON(frame)}
	nonFinite := []complex128{complex(math.NaN(), 0), complex(0, math.NaN()), complex(math.Inf(1), 0), complex(0, math.Inf(-1))}
	for i, v := range nonFinite {
		iq := append([]complex128(nil), frame...)
		iq[17*i] = v
		frames = append(frames, frameJSON(iq))
	}
	resp, err := http.Post(srv.URL+"/api/stream/frames", "application/json",
		strings.NewReader(`{"frames":[`+strings.Join(frames, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	var fr framesResponse
	err = json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || fr.Accepted != 1 || fr.Shed != len(nonFinite) {
		t.Fatalf("non-finite IQ: status %d, %+v, %v; want 202 with 1 accepted and %d shed", resp.StatusCode, fr, err, len(nonFinite))
	}
	if got := s.m.framesShed.With(shedMalformed).Value(); got != float64(len(bad)+len(nonFinite)) {
		t.Fatalf("shed malformed = %v, want %d", got, len(bad)+len(nonFinite))
	}
}

// TestNonFiniteBandDoesNotWedgeTheGrid is the regression for the remote
// wedge: band=NaN:NaN used to index a slot's counts with int(NaN) and
// panic holding the slot mutex, which net/http recovered — leaving the
// mutex locked, the dispatcher stuck in its next fold and every later
// query hanging.
func TestNonFiniteBandDoesNotWedgeTheGrid(t *testing.T) {
	s, err := NewService(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	fold := func() {
		t.Helper()
		done := make(chan struct{})
		if err := s.Ingest(IngestFrame{
			Sensor: "w", CenterHz: 600e6, SampleRate: 2.4e6, IQ: randFrame(64, 5), Done: func() { close(done) },
		}); err != nil {
			t.Fatal(err)
		}
		wait(t, done, "a frame to fold")
	}
	fold() // the slot the bad queries would have died in is live

	for _, band := range []string{"NaN:NaN", "NaN:600e6", "590e6:NaN", "-Inf:Inf", "Inf:Inf"} {
		resp, err := http.Get(srv.URL + "/api/occupancy?band=" + band)
		if err != nil {
			t.Fatalf("band=%s: %v", band, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("band=%s: %d, want 400", band, resp.StatusCode)
		}
	}
	nan := math.NaN()
	for _, q := range [][2]float64{{nan, nan}, {nan, 600e6}, {590e6, nan}, {math.Inf(-1), math.Inf(1)}} {
		if _, err := s.Grid().Query(q[0], q[1]); err == nil {
			t.Fatalf("Query(%v, %v) answered", q[0], q[1])
		}
	}

	fold() // the next frame folds
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(srv.URL + "/api/occupancy?band=590e6:610e6")
	if err != nil {
		t.Fatalf("query after the bad bands: %v", err)
	}
	var occ BandOccupancy
	if err := json.NewDecoder(resp.Body).Decode(&occ); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(occ.Slots) == 0 || occ.Slots[len(occ.Slots)-1].Frames != 2 {
		t.Fatalf("query after the bad bands: %d, %+v", resp.StatusCode, occ.Slots)
	}
}

// TestQueryInsideAWideLastBucket: the bucket count is rounded, so a band
// that is not a whole number of buckets ends in a bucket wider than
// BucketHz, and a query inside its tail used to index one past the
// counts — under the slot lock.
func TestQueryInsideAWideLastBucket(t *testing.T) {
	g, err := NewGrid(GridConfig{LowHz: 470e6, HighHz: 698.4e6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Fold(make([]float64, 64), 697e6, 2.4e6, time.Unix(1e9, 0)); err != nil {
		t.Fatal(err)
	}
	occ, err := g.Query(698.3e6, 698.4e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(occ.Slots) != 1 || len(occ.Slots[0].Occupancy) != 1 {
		t.Fatalf("query of the last bucket's tail: %+v", occ)
	}
}
