package trust

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"sensorcal/internal/obs"
)

var decodeNow = time.Date(2026, 9, 30, 12, 0, 0, 0, time.UTC)

func fixedNow() time.Time { return decodeNow }

// decoded is everything a caller of the decode loop can observe.
type decoded struct {
	readings []Reading
	raws     [][]byte
	batch    bool
	err      error
}

// elementIndex extracts i from "batch element i: …", or -1.
var elementIndexRE = regexp.MustCompile(`^batch element (\d+):`)

func (d decoded) elementIndex() int {
	if d.err == nil {
		return -1
	}
	m := elementIndexRE.FindStringSubmatch(d.err.Error())
	if m == nil {
		return -1
	}
	i, _ := strconv.Atoi(m[1])
	return i
}

func reader(body []byte, oneByte bool) io.Reader {
	if oneByte {
		return iotest.OneByteReader(bytes.NewReader(body))
	}
	return bytes.NewReader(body)
}

func runDecoder(c *Collector, body []byte, oneByte bool) decoded {
	var d decoded
	d.batch, d.err = c.DecodeReadings(io.NopCloser(reader(body, oneByte)), fixedNow, func(r Reading, raw []byte) {
		d.readings = append(d.readings, r)
		d.raws = append(d.raws, append([]byte(nil), raw...))
	})
	return d
}

func runOracle(body []byte, oneByte bool) decoded {
	var d decoded
	d.batch, d.err = oracleDecodeReadings(reader(body, oneByte), fixedNow, func(r Reading) {
		d.readings = append(d.readings, r)
	})
	return d
}

func sameReading(a, b Reading) bool {
	return a.Node == b.Node && a.SignalID == b.SignalID &&
		math.Float64bits(a.PowerDBm) == math.Float64bits(b.PowerDBm) &&
		a.At.Equal(b.At) && a.At.Format(time.RFC3339Nano) == b.At.Format(time.RFC3339Nano) &&
		a.Key == b.Key && a.Trace == b.Trace
}

// compareWithOracle is the differential check: through a plain reader and
// one byte at a time, DecodeReadings must yield the readings the old
// json.Decoder loop yields, stop with an error exactly when it does, at
// the same element, and hand out raw spans that decode to the same
// reading again (what the ring's owner will do with them).
func compareWithOracle(t testing.TB, c *Collector, body []byte) {
	t.Helper()
	for _, oneByte := range []bool{false, true} {
		want, got := runOracle(body, oneByte), runDecoder(c, body, oneByte)
		fail := func(format string, args ...interface{}) {
			t.Helper()
			t.Fatalf("body %q (one byte at a time: %v): %s\n oracle err: %v\ndecoder err: %v",
				body, oneByte, fmt.Sprintf(format, args...), want.err, got.err)
		}
		if got.batch != want.batch {
			fail("batch = %v, oracle %v", got.batch, want.batch)
		}
		if (got.err == nil) != (want.err == nil) {
			fail("error/no-error differs")
		}
		if got.elementIndex() != want.elementIndex() {
			fail("failed at element %d, oracle at %d", got.elementIndex(), want.elementIndex())
		}
		if len(got.readings) != len(want.readings) {
			fail("%d readings before the stop, oracle %d", len(got.readings), len(want.readings))
		}
		for i := range want.readings {
			if !sameReading(got.readings[i], want.readings[i]) {
				fail("reading %d = %+v, oracle %+v", i, got.readings[i], want.readings[i])
			}
			var req submitRequest
			if err := json.Unmarshal(got.raws[i], &req); err != nil {
				fail("raw span %d %q does not decode: %v", i, got.raws[i], err)
			}
			if again := req.oracleReading(fixedNow); !sameReading(again, want.readings[i]) {
				fail("raw span %d %q decodes to %+v, want %+v", i, got.raws[i], again, want.readings[i])
			}
		}
	}
}

const plain = `{"node":"a","signal_id":"tv-521MHz","power_dbm":-61.25,"at":"2026-09-30T11:59:00.123456789Z","key":"a|tv-521MHz|1x","trace":"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"}`

// bigDecodeCases hold one element larger than the pooled window. They
// stay out of the fuzz corpus: the engine spends its whole budget
// minimizing whatever it derives from a 64 KiB seed.
func bigDecodeCases() []string {
	big := `{"node":"a","signal_id":"s","power_dbm":-60,"key":"` + strings.Repeat("k", 64<<10) + `"}`
	return []string{
		big,
		`[` + plain + `,` + big + `,` + plain + `]`,
		`[` + big[:len(big)-3] + `]`,
		`[` + plain + `,{"node":"a","hw":"` + strings.Repeat(`\"`, 40<<10) + `"},` + plain + `]`,
		`[` + strings.Repeat("[", 70<<10) + `]`,
		strings.Repeat("7", 70<<10),
	}
}

// decodeCases are the hand-picked bodies; they also seed the fuzz corpus.
func decodeCases() []string {
	return []string{
		// the two wire forms, as trust.Client and curl write them
		plain,
		"[" + plain + "]",
		"[" + plain + "," + plain + "]",
		"[]",
		"[ ]",
		"{}",
		"[{}]",
		// whitespace everywhere JSON allows it
		" \t\r\n[ \n{ \"node\" : \"a\" , \"signal_id\":\t\"s\",\r\n\"power_dbm\" : -60 } \n , {\"node\":\"b\"}\n ] \n",
		"\n {\"node\":\"a\",\"signal_id\":\"s\",\"power_dbm\":1}\n",
		// key order, missing fields, unregistered node
		`[{"trace":"t","key":"k","at":"2026-09-30T11:00:00Z","power_dbm":-1,"signal_id":"s","node":"b"}]`,
		`[{"node":"ghost","signal_id":"s","power_dbm":-60}]`,
		`[{"signal_id":"s"},{"node":"a"},{"power_dbm":3}]`,
		// duplicate and case-folded keys: encoding/json's last-wins and folding
		`[{"node":"a","node":"b","signal_id":"s","power_dbm":-60}]`,
		`[{"NODE":"a","Signal_ID":"s","POWER_DBM":-60}]`,
		`[{"node":"a","Node":"b","signal_id":"s"}]`,
		`[{"power_dbm":-60,"power_dbm":-70}]`,
		// unknown fields, nesting
		`[{"node":"a","extra":{"deep":[1,2,{"x":"}"}]},"signal_id":"s","power_dbm":-60}]`,
		`[{"node":"a","signal_id":"s","power_dbm":-60,"hw":"rtl \"v3\""}]`,
		`[{"node":{"id":"a"}}]`,
		`[{"node":["a"]}]`,
		// escapes and non-ASCII
		`[{"node":"a","signal_id":"tv\u002d521","power_dbm":-60}]`,
		`[{"node":"\u0061","signal_id":"s\\x","power_dbm":-60,"key":"q\"q","at":"2026-09-30T11:59:00\u005a"}]`,
		`[{"node":"a","signal_id":"größe","power_dbm":-60}]`,
		"[{\"node\":\"a\",\"signal_id\":\"bad\xffutf8\",\"power_dbm\":-60}]",
		"[{\"node\":\"a\",\"signal_id\":\"ctl\x01\",\"power_dbm\":-60}]",
		"[{\"node\":\"a\",\"signal_id\":\"del\x7f\",\"power_dbm\":-60}]",
		`[{"node":"a"}]`,
		// null in every position
		`null`,
		`[null]`,
		`[null,` + plain + `]`,
		`[{"node":null,"signal_id":"s","power_dbm":null,"at":null,"key":null}]`,
		`nullx`,
		`[nullnull]`,
		`[nul]`,
		`nul`,
		`[null`,
		// numbers
		`[{"power_dbm":0},{"power_dbm":-0},{"power_dbm":0.5},{"power_dbm":1e3},{"power_dbm":1E+3},{"power_dbm":-1.5e-3}]`,
		`[{"power_dbm":01}]`,
		`[{"power_dbm":1.}]`,
		`[{"power_dbm":-}]`,
		`[{"power_dbm":.5}]`,
		`[{"power_dbm":+1}]`,
		`[{"power_dbm":1e}]`,
		`[{"power_dbm":1e999}]`,
		`[{"power_dbm":-1e999}]`,
		`[{"power_dbm":1e-999}]`,
		`[{"power_dbm":0x10}]`,
		`[{"power_dbm":NaN}]`,
		`[{"power_dbm":Infinity}]`,
		`[{"power_dbm":"-60"}]`,
		`[{"power_dbm":1_000}]`,
		`[{"power_dbm":123456789012345678901234567890123456789012345678901234567890}]`,
		`[{"power_dbm":-60x}]`,
		`[{"node":"a","power_dbm":-60 "signal_id":"s"}]`,
		// at: offsets, bad, zero, wrong type
		`[{"node":"a","at":"2026-09-30T13:59:00+02:00"}]`,
		`[{"node":"a","at":"2026-09-30T11:59:00.5-07:00"}]`,
		`[{"node":"a","at":"0001-01-01T00:00:00Z"}]`,
		`[{"node":"a","at":"yesterday"}]`,
		`[{"node":"a","at":"2026-09-30 11:59:00Z"}]`,
		`[{"node":"a","at":"2026-09-30T11:59:00"}]`,
		`[{"node":"a","at":"2026-09-30T24:00:00Z"}]`,
		`[{"node":"a","at":"2026-09-30T11:59:00,5Z"}]`,
		`[{"node":"a","at":""}]`,
		`[{"node":"a","at":1759233540}]`,
		`[{"node":"a","at":"2026-09-30T11:59:00Z"}]`,
		// structure: commas, brackets, trailing bytes
		`[` + plain + ` ` + plain + `]`,
		`[` + plain + `,]`,
		`[,` + plain + `]`,
		`[` + plain + `,,` + plain + `]`,
		`[` + plain,
		`[` + plain + `,`,
		`[` + plain + `}`,
		`[}`,
		`[` + plain + `] trailing {garbage`,
		plain + ` trailing`,
		plain + plain,
		`[` + plain + `][` + plain + `]`,
		`[[` + plain + `]]`,
		`{"node":"a"`,
		`{"node":"a",}`,
		`{"node":"a" "signal_id":"s"}`,
		`{"node"}`,
		`{"node":}`,
		`{node:"a"}`,
		`{"node":"a"]`,
		`[{"node":"a"]`,
		`[{"node":"a","key":"unterminated}]`,
		// other element types
		`[1]`, `[1,2]`, `["x"]`, `[true]`, `[false,null]`, `[[]]`, `[-]`, `[tru]`, `12`, `"x"`, `true`, `x`, `]`, `}`, `,`, `:`,
		// empty
		``, ` `, "\n\t",
	}
}

func newDecodeCollector() *Collector {
	c := NewCollector()
	for _, id := range []string{"a", "b", "node-1", "node-2"} {
		if err := c.Ledger.Register(Node{ID: NodeID(id)}); err != nil {
			panic(err)
		}
	}
	return c
}

func TestReadingsDecoderMatchesJSON(t *testing.T) {
	c := newDecodeCollector()
	cases := decodeCases()
	for _, body := range append(bigDecodeCases(), cases...) {
		compareWithOracle(t, c, []byte(body))
	}
	// Seeded random splices: cut two cases anywhere and join them, drop,
	// double or overwrite a byte — the damage a torn upload, a buggy
	// encoder or a hostile client produces.
	rng := rand.New(rand.NewSource(15))
	const alphabet = "{}[]\",:\\ \n0123456789.-+eEnultrfasNODE_\x00\xc3"
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		a, b := cases[rng.Intn(len(cases))], cases[rng.Intn(len(cases))]
		body := []byte(a[:rng.Intn(len(a)+1)] + b[rng.Intn(len(b)+1):])
		for k := rng.Intn(3); k > 0 && len(body) > 0; k-- {
			at := rng.Intn(len(body))
			switch rng.Intn(3) {
			case 0:
				body = append(body[:at], body[at+1:]...)
			case 1:
				body = append(body[:at+1], body[at:]...)
			case 2:
				body[at] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		compareWithOracle(t, c, body)
	}
}

func FuzzReadingsDecoder(f *testing.F) {
	for _, body := range decodeCases() {
		f.Add([]byte(body))
	}
	c := newDecodeCollector()
	f.Fuzz(func(t *testing.T, body []byte) {
		compareWithOracle(t, c, body)
	})
}

// TestReadingsDecoderInternsRegisteredNode: the Node of a registered
// node's reading is the ledger's own string, not a copy per reading.
func TestReadingsDecoderInternsRegisteredNode(t *testing.T) {
	c := newDecodeCollector()
	body := []byte(`[{"node":"node-1","signal_id":"s","power_dbm":-60,"at":"2026-09-30T11:59:00Z","key":"k"}]`)
	allocs := testing.AllocsPerRun(200, func() {
		c.DecodeReadings(io.NopCloser(bytes.NewReader(body)), fixedNow, func(Reading, []byte) {})
	})
	// The reader and its NopCloser, the cap reader, signal_id and key:
	// five. A sixth would be the node.
	if allocs > 5 {
		t.Fatalf("%.0f allocations for a one-reading body, want at most 5", allocs)
	}
}

// TestReadingsDecodeFallbackCounter: the counter moves once per element
// that encoding/json had to decode, and not for plain ones.
func TestReadingsDecodeFallbackCounter(t *testing.T) {
	reg := obs.NewRegistry()
	c := newDecodeCollector().Instrument(reg)
	post := func(body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		c.Handler(fixedNow).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/readings", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s: %d %s", body, rec.Code, rec.Body)
		}
	}
	fallbacks := func() float64 {
		return reg.Counter("trust_readings_decode_fallback_total", "").Value()
	}
	post(`[{"node":"a","signal_id":"s","power_dbm":-60},{"node":"b","signal_id":"s","power_dbm":-61,"key":"k1"}]`)
	post(`{"node":"a","signal_id":"s","power_dbm":-60}`)
	if got := fallbacks(); got != 0 {
		t.Fatalf("plain readings took the encoding/json path %v times", got)
	}
	post(`[{"node":"a","signal_id":"s","power_dbm":-60},{"node":"b","signal_id":"tv\u002d521","power_dbm":-61},{"node":"b","signal_id":"s","power_dbm":-61,"hw":"x"}]`)
	if got := fallbacks(); got != 2 {
		t.Fatalf("fallback counter = %v after an escaped and an unknown-field element, want 2", got)
	}
}

// TestReadingsBodyOverCapIs413: a body over the cap used to be cut at
// 16 MiB by io.LimitReader and answered "400 unexpected EOF". It is a
// 413 now, still after the elements that fit were ingested.
func TestReadingsBodyOverCapIs413(t *testing.T) {
	reg := obs.NewRegistry()
	c := newDecodeCollector().Instrument(reg)
	var body bytes.Buffer
	fits := 0
	body.WriteByte('[')
	for i := 0; body.Len() <= maxReadingsBody; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"node":"a","signal_id":"tv-%d","power_dbm":-60.5,"at":"2026-09-30T11:59:00Z"}`, i%8)
		if body.Len() <= maxReadingsBody {
			fits++
		}
	}
	body.WriteByte(']')
	rec := httptest.NewRecorder()
	c.Handler(fixedNow).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/readings", &body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over the cap answered %d %s, want 413", rec.Code, rec.Body)
	}
	if got := reg.Counter("trust_readings_total", "").Value(); int(got) != fits {
		t.Fatalf("%v readings ingested before the 413, want the %d that end within the cap", got, fits)
	}
}

// clientWireBody is n readings as trust.Client ships them: the spooled
// submitRequest payloads in one array, keyed, every sixth one traced.
func clientWireBody(n int) []byte {
	batch := make([]submitRequest, n)
	for i := range batch {
		r := Reading{
			Node: "node-1", SignalID: fmt.Sprintf("tv-%dMHz", 521+6*(i%6)),
			PowerDBm: -60 - float64(i)/7, At: decodeNow.Add(-time.Duration(i) * time.Second),
		}
		batch[i] = submitRequest{Node: string(r.Node), SignalID: r.SignalID, PowerDBm: r.PowerDBm, At: r.At, Key: ReadingKey(r)}
		if i%6 == 0 {
			batch[i].Trace = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
		}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		panic(err)
	}
	return body
}

var decodeSink int

func BenchmarkReadingsDecode(b *testing.B) {
	c := newDecodeCollector()
	for _, n := range []int{6, 60} {
		body := clientWireBody(n)
		b.Run(fmt.Sprintf("new/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				c.DecodeReadings(io.NopCloser(bytes.NewReader(body)), fixedNow, func(Reading, []byte) { decodeSink++ })
			}
		})
		b.Run(fmt.Sprintf("oracle/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				oracleDecodeReadings(bytes.NewReader(body), fixedNow, func(Reading) { decodeSink++ })
			}
		})
	}
}
