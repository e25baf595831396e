package stream

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sensorcal/internal/dsp"
	"sensorcal/internal/obs"
)

// maxFramesBody bounds a POST /api/stream/frames body. A 256-sample
// frame is ~2.8 KB of base64; 8 MB admits ~2900 frames per request,
// far beyond what a single sensor batches.
const maxFramesBody = 8 << 20

// wireFrame is one frame of the /api/stream/frames request body. IQ
// travels as base64 of little-endian float32 pairs (I then Q per
// sample) — 8 bytes/sample before base64, the compact format cheap
// sensors actually emit.
type wireFrame struct {
	Sensor     string    `json:"sensor"`
	At         time.Time `json:"at,omitempty"`
	CenterHz   float64   `json:"center_hz"`
	SampleRate float64   `json:"sample_rate"`
	IQB64      string    `json:"iq_b64"`
}

type framesRequest struct {
	Frames []wireFrame `json:"frames"`
}

type framesResponse struct {
	Accepted int    `json:"accepted"`
	Shed     int    `json:"shed"`
	FFTSize  int    `json:"fft_size"`
	Reason   string `json:"reason,omitempty"`
}

// The pool decoded IQ is drawn from and returned to; variables so the
// frames fuzz target can count that every slice taken comes back.
var getIQ, putIQ = dsp.GetComplex, dsp.PutComplex

// decodeIQ unpacks base64 LE float32 interleaved IQ into a pooled
// complex slice of exactly want samples. The returned slice belongs to
// the dsp pool; ingest with ReleaseIQ=true returns it.
func decodeIQ(b64 string, want int) ([]complex128, error) {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("iq_b64: %w", err)
	}
	if len(raw) != want*8 {
		return nil, fmt.Errorf("iq_b64: %d bytes, want %d (%d float32 pairs)", len(raw), want*8, want)
	}
	iq := getIQ(want)
	for i := 0; i < want; i++ {
		re := math.Float32frombits(binary.LittleEndian.Uint32(raw[i*8:]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(raw[i*8+4:]))
		iq[i] = complex(float64(re), float64(im))
	}
	return iq, nil
}

// EncodeIQ is the inverse of the wire decoding — Go clients and tests
// build request bodies with it.
func EncodeIQ(iq []complex128) string {
	raw := make([]byte, len(iq)*8)
	for i, s := range iq {
		binary.LittleEndian.PutUint32(raw[i*8:], math.Float32bits(float32(real(s))))
		binary.LittleEndian.PutUint32(raw[i*8+4:], math.Float32bits(float32(imag(s))))
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// Handler exposes the streaming service over HTTP:
//
//	POST /api/stream/register — {"id":"sensor-1"} → session snapshot
//	POST /api/stream/frames   — {"frames":[{sensor,at,center_hz,sample_rate,iq_b64}]}
//	GET  /api/occupancy?band=lo:hi — time×frequency occupancy buckets
//	GET  /api/stream/stats    — fleet counters (+ ?sensor= for one session)
//
// Every route runs under the RED middleware; shed responses carry
// Retry-After exactly like the trust collector's hardened surface.
func (s *Service) Handler() http.Handler {
	mw := obs.NewMiddleware("stream", s.cfg.Registry, s.cfg.Tracer)
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.Handle(route, mw.WrapHandler(route, h))
	}
	handle("/api/stream/register", s.handleRegister)
	handle("/api/stream/frames", s.handleFrames)
	handle("/api/stream/stats", s.handleStats)
	handle("/api/occupancy", s.handleOccupancy)
	return mux
}

func (s *Service) retryAfterHeader(w http.ResponseWriter) {
	obs.SetRetryAfter(w, s.cfg.RetryAfter)
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sess, err := s.Register(req.ID)
	if err != nil {
		if errors.Is(err, ErrSessionLimit) {
			s.retryAfterHeader(w)
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(sess.Stats())
}

func (s *Service) handleFrames(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req framesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFramesBody)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Frames) == 0 {
		http.Error(w, "no frames", http.StatusBadRequest)
		return
	}
	resp := framesResponse{FFTSize: s.cfg.FFTSize}
	var lastErr error
	for i := range req.Frames {
		f := &req.Frames[i]
		iq, err := decodeIQ(f.IQB64, s.cfg.FFTSize)
		if err != nil {
			resp.Shed++
			lastErr = err
			s.m.framesShed.With(shedMalformed).Inc()
			continue
		}
		err = s.Ingest(IngestFrame{
			Sensor: f.Sensor, At: f.At,
			CenterHz: f.CenterHz, SampleRate: f.SampleRate,
			IQ: iq, ReleaseIQ: true,
		})
		if err != nil {
			putIQ(iq)
			resp.Shed++
			lastErr = err
			continue
		}
		resp.Accepted++
	}
	status := http.StatusAccepted
	if resp.Accepted == 0 && lastErr != nil {
		// Everything shed: surface the backpressure as a status the
		// sensor's retrier understands.
		resp.Reason = lastErr.Error()
		switch {
		case errors.Is(lastErr, ErrQueueFull) || errors.Is(lastErr, ErrSessionLimit):
			s.retryAfterHeader(w)
			status = http.StatusTooManyRequests
		case errors.Is(lastErr, ErrDegraded):
			s.retryAfterHeader(w)
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusBadRequest
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&resp)
}

// handleOccupancy serves the aggregation the fleet exists to build.
// band=lo:hi is in Hz (e.g. band=470e6:698e6); omitted means the whole
// monitored band.
func (s *Service) handleOccupancy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	gc := s.grid.Config()
	lo, hi := gc.LowHz, gc.HighHz
	if band := r.URL.Query().Get("band"); band != "" {
		parts := strings.SplitN(band, ":", 2)
		if len(parts) != 2 {
			http.Error(w, "band must be lo:hi in Hz", http.StatusBadRequest)
			return
		}
		var err1, err2 error
		lo, err1 = strconv.ParseFloat(parts[0], 64)
		hi, err2 = strconv.ParseFloat(parts[1], 64)
		// ParseFloat accepts "NaN" and "Inf".
		if err1 != nil || err2 != nil || !finite(lo) || !finite(hi) {
			http.Error(w, "band must be lo:hi in Hz", http.StatusBadRequest)
			return
		}
	}
	occ, err := s.grid.Query(lo, hi)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.m.occQueries.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(occ)
}

// StatsResponse is the /api/stream/stats body.
type StatsResponse struct {
	Sessions   int           `json:"sessions"`
	Evicted    int64         `json:"evicted"`
	QueueDepth int           `json:"queue_depth"`
	FFTSize    int           `json:"fft_size"`
	Degraded   bool          `json:"degraded"`
	Sensor     *SessionStats `json:"sensor,omitempty"`
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	resp := StatsResponse{
		Sessions:   s.table.Len(),
		Evicted:    s.table.Evicted(),
		QueueDepth: s.QueueDepth(),
		FFTSize:    s.cfg.FFTSize,
		Degraded:   s.Degraded(),
	}
	if id := r.URL.Query().Get("sensor"); id != "" {
		sess := s.table.Get(id)
		if sess == nil {
			http.Error(w, "unknown sensor", http.StatusNotFound)
			return
		}
		st := sess.Stats()
		resp.Sensor = &st
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}
