package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"sensorcal/internal/dsp"
	"sensorcal/internal/obs"
)

// FuzzFramesBody throws arbitrary bodies at POST /api/stream/frames:
// the handler never panics, answers for every frame of a body that
// parses (accepted + shed == len(frames)), and every IQ slice decodeIQ
// drew from the pool has gone back by the time the service has drained —
// from the handler for a frame shed at the door, from the dispatcher for
// one accepted. No slice comes back holding a NaN or ±Inf sample, so no
// accepted frame carried one.
func FuzzFramesBody(f *testing.F) {
	const n = 4
	good := EncodeIQ(randFrame(n, 1))
	nan := EncodeIQ([]complex128{1, complex(0, math.NaN()), 1, 1})
	inf := EncodeIQ([]complex128{1, 1, complex(math.Inf(-1), 0), 1})
	frame := func(sensor, centre, rate, b64 string) string {
		return fmt.Sprintf(`{"sensor":%q,"center_hz":%s,"sample_rate":%s,"iq_b64":%q}`, sensor, centre, rate, b64)
	}
	for _, body := range []string{
		`{"frames":[` + frame("a", "600e6", "2.4e6", good) + `]}`,
		`{"frames":[` + frame("a", "600e6", "2.4e6", good) + `,` + frame("b", "100e6", "2.4e6", good) + `,` + frame("", "600e6", "2.4e6", good) + `]}`,
		`{"frames":[` + frame("a", "600e6", "0", good) + `,` + frame("a", "600e6", "2.4e6", good[:8]) + `,` + frame("a", "600e6", "2.4e6", "!") + `]}`,
		`{"frames":[` + frame("a", "600e6", "1e999", good) + `]}`,
		`{"frames":[{"sensor":"a","at":"2026-10-02T12:00:00Z","center_hz":6e8,"sample_rate":2.4e6,"iq_b64":"` + good + `"}]}`,
		`{"frames":[]}`, `{"frames":null}`, `{}`, `[]`, ``, `{"frames":[{}]}`, `{"frames":[null]}`,
		`{"frames":[` + frame("a", "600e6", "2.4e6", nan) + `,` + frame("a", "600e6", "2.4e6", good) + `,` + frame("b", "600e6", "2.4e6", inf) + `]}`,
	} {
		f.Add([]byte(body))
	}

	var out atomic.Int64       // pooled IQ slices taken and not yet returned
	var nonFinite atomic.Int64 // slices returned holding a NaN or ±Inf sample
	getIQ = func(k int) []complex128 { out.Add(1); return dsp.GetComplex(k) }
	putIQ = func(s []complex128) {
		for _, v := range s {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				nonFinite.Add(1)
				break
			}
		}
		out.Add(-1)
		dsp.PutComplex(s)
	}
	f.Cleanup(func() { getIQ, putIQ = dsp.GetComplex, dsp.PutComplex })

	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := NewService(Config{
			FFTSize: n, QueueCap: 8, MaxSessions: 4, Workers: 1, Registry: obs.NewRegistry(),
			Grid: GridConfig{LowHz: 500e6, HighHz: 700e6, Slots: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/stream/frames", bytes.NewReader(body)))
		s.Close() // drains: every accepted frame has been finished
		if left := out.Load(); left != 0 {
			t.Fatalf("%d pooled IQ slices not returned", left)
		}
		if bad := nonFinite.Swap(0); bad != 0 {
			t.Fatalf("%d frames with a non-finite IQ sample were taken in", bad)
		}

		var req framesRequest
		parsed := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		if !parsed || len(req.Frames) == 0 {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("unparseable or empty body answered %d", rec.Code)
			}
			return
		}
		var resp framesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.Bytes(), err)
		}
		if resp.Accepted+resp.Shed != len(req.Frames) {
			t.Fatalf("accepted %d + shed %d != %d frames", resp.Accepted, resp.Shed, len(req.Frames))
		}
		if (rec.Code == http.StatusAccepted) != (resp.Accepted > 0) {
			t.Fatalf("status %d with %d accepted", rec.Code, resp.Accepted)
		}
		if got := s.m.framesIngested.Value(); got != float64(resp.Accepted) {
			t.Fatalf("response says %d accepted, the service ingested %v", resp.Accepted, got)
		}
	})
}
