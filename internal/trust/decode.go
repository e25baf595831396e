package trust

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The one decoder of the POST /api/readings body, shared by the
// collector's handler and the replica ring's router.
//
// encoding/json stays the definition of the wire form. The fast path
// below accepts only an element it can prove it decodes to the same
// submitRequest json.Unmarshal would produce: an object whose keys are
// the six field names in their exact case, each at most once, whose
// strings are unescaped printable ASCII and whose number follows the
// JSON grammar. Everything else — escapes, non-ASCII, unknown,
// case-folded or repeated keys, null, nesting, any syntax error — is
// declined, and the element's bytes go through json.Unmarshal. Which
// path an element takes depends only on its bytes.

// maxReadingsBody bounds one /api/readings request body.
const maxReadingsBody = 16 << 20

// decodeWindow is the pooled window over the request body: a few hundred
// readings, so a body is parsed in place and memory stays O(element)
// however long the batch is.
const decodeWindow = 32 << 10

// readingsDecoder is a sliding window over a request body. buf[pos:end]
// is read but not yet consumed.
type readingsDecoder struct {
	src      io.Reader
	buf      []byte
	pos, end int
	err      error // what src returned when it stopped, io.EOF included
	win      [decodeWindow]byte
}

var decoderPool = sync.Pool{New: func() interface{} { return new(readingsDecoder) }}

// fill slides the unconsumed bytes to the front of the window and reads
// until it is full or src stops. When one element already fills the
// window it moves to a private buffer of twice the size, which the body
// cap bounds and which is dropped, not pooled, when the request ends.
func (d *readingsDecoder) fill() {
	if d.pos > 0 {
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	} else if d.end == len(d.buf) {
		grown := make([]byte, 2*len(d.buf))
		copy(grown, d.buf)
		d.buf = grown
	}
	for empty := 0; d.end < len(d.buf) && d.err == nil; {
		n, err := d.src.Read(d.buf[d.end:])
		d.end += n
		d.err = err
		if n == 0 && err == nil {
			if empty++; empty == 100 {
				d.err = io.ErrNoProgress
			}
		}
	}
}

// peek skips JSON whitespace and returns the next byte without consuming
// it.
func (d *readingsDecoder) peek() (byte, error) {
	for {
		for d.pos < d.end {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\r', '\n':
				d.pos++
			default:
				return c, nil
			}
		}
		if d.err != nil {
			return 0, d.err
		}
		d.fill()
	}
}

// DecodeReadings streams one POST /api/readings body, calling yield for
// each reading in order together with the bytes of its element exactly
// as they arrived. raw aliases the decoder's window and is valid only
// until yield returns; the Reading owns its strings. A missing or zero
// "at" becomes now(). batch reports which wire form the body used: a
// JSON array of readings, or a single reading object.
//
// A body that stops decoding returns an error after every well-formed
// element before it has been yielded: the idempotency keys on that
// prefix make a client's retry safe. A body over 16 MiB yields the
// elements that end within the cap and returns an *http.MaxBytesError.
// Bytes after the closing bracket, or after the single object, are
// ignored.
func (c *Collector) DecodeReadings(body io.ReadCloser, now func() time.Time, yield func(r Reading, raw []byte)) (batch bool, err error) {
	d := decoderPool.Get().(*readingsDecoder)
	d.src, d.buf = http.MaxBytesReader(nil, body, maxReadingsBody), d.win[:]
	defer func() {
		d.src, d.buf, d.pos, d.end, d.err = nil, nil, 0, 0, nil
		decoderPool.Put(d)
	}()
	first, err := d.peek()
	if err != nil {
		return false, fmt.Errorf("empty or unreadable body: %w", err)
	}
	if first != '[' {
		return false, c.decodeElement(d, now, yield)
	}
	d.pos++
	for i := 0; ; i++ {
		next, err := d.peek()
		switch {
		case err != nil:
			return true, fmt.Errorf("batch ends before its closing bracket: %w", err)
		case next == ']':
			return true, nil
		case next == '}':
			return true, fmt.Errorf("invalid character '}' after array element")
		case i > 0 && next != ',':
			return true, fmt.Errorf("batch element %d: expected comma after array element", i)
		case i > 0:
			d.pos++
		}
		if err := c.decodeElement(d, now, yield); err != nil {
			return true, fmt.Errorf("batch element %d: %w", i, err)
		}
	}
}

// decodeElement decodes the JSON value that starts at the next
// non-space byte, refilling the window until the value is whole.
func (c *Collector) decodeElement(d *readingsDecoder, now func() time.Time, yield func(Reading, []byte)) error {
	if _, err := d.peek(); err != nil {
		return unexpectedEOF(err)
	}
	for {
		b := d.buf[d.pos:d.end]
		var r Reading
		n := c.parsePlainReading(b, &r)
		if n == 0 {
			var whole bool
			if n, whole = valueExtent(b); !whole {
				if d.err != nil {
					return unexpectedEOF(d.err)
				}
				d.fill()
				continue
			}
			c.metrics.recordDecodeFallback()
			var req submitRequest
			if err := json.Unmarshal(b[:n], &req); err != nil {
				return err
			}
			r = req.reading()
		}
		if r.At.IsZero() {
			r.At = now()
		}
		d.pos += n
		yield(r, b[:n])
		return nil
	}
}

// unexpectedEOF is the error for a body that ends inside a value.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// valueExtent returns the length of the JSON value at the start of b and
// whether b holds all of it. It is exact for a well-formed object and
// for null, the only values that decode into a reading; for anything
// else it returns bytes json.Unmarshal will reject as a reading, so
// either way encoding/json has the last word on the element.
func valueExtent(b []byte) (n int, whole bool) {
	switch b[0] {
	case '{', '[', '"':
		depth := 0
		for i := 0; i < len(b); i++ {
			switch b[i] {
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			case '"':
				for i++; i < len(b) && b[i] != '"'; i++ {
					if b[i] == '\\' {
						i++
					}
				}
				if i >= len(b) {
					return 0, false
				}
			}
			if depth <= 0 {
				return i + 1, true
			}
		}
		return 0, false
	case 'n':
		const null = "null"
		if len(b) >= len(null) {
			if string(b[:len(null)]) == null {
				return len(null), true
			}
		} else if string(b) == null[:len(b)] {
			return 0, false
		}
	}
	// A number, true, false or garbage: up to the next delimiter.
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case ' ', '\t', '\r', '\n', ',', ']', '}':
			return i, true
		}
	}
	return 0, false
}

// The fields of the wire form, as parsePlainReading indexes them: the
// four whose value is kept as a byte span first.
const (
	fieldNode = iota
	fieldSignalID
	fieldKey
	fieldTrace
	fieldAt
	fieldPowerDBm
	noField
)

// parsePlainReading is the fast path: it decodes the reading object at
// the start of b into r and returns the object's length, or returns 0
// to decline — because b holds something other than a plain reading
// object, or not yet all of it.
func (c *Collector) parsePlainReading(b []byte, r *Reading) int {
	if b[0] != '{' {
		return 0
	}
	var (
		seen uint8
		text [fieldTrace + 1][]byte
	)
	i := skipSpace(b, 1)
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		name, j := plainString(b, i)
		if j == 0 {
			return 0
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return 0
		}
		i = skipSpace(b, i+1)
		field := noField
		switch string(name) {
		case "node":
			field = fieldNode
		case "signal_id":
			field = fieldSignalID
		case "power_dbm":
			field = fieldPowerDBm
		case "at":
			field = fieldAt
		case "key":
			field = fieldKey
		case "trace":
			field = fieldTrace
		}
		if field == noField || seen&(1<<field) != 0 {
			return 0
		}
		seen |= 1 << field
		if field == fieldPowerDBm {
			if j = numberEnd(b, i); j == 0 {
				return 0
			}
			v, err := strconv.ParseFloat(string(b[i:j]), 64)
			if err != nil {
				return 0
			}
			r.PowerDBm = v
		} else {
			var val []byte
			if val, j = plainString(b, i); j == 0 {
				return 0
			}
			if field != fieldAt {
				text[field] = val
			} else if r.At.UnmarshalJSON(b[i:j]) != nil { // the call encoding/json makes, on the same bytes
				return 0
			}
		}
		i = skipSpace(b, j)
		if i == len(b) {
			return 0
		}
		if b[i] == '}' {
			r.Node = c.Ledger.internID(text[fieldNode])
			r.SignalID, r.Key, r.Trace = string(text[fieldSignalID]), string(text[fieldKey]), string(text[fieldTrace])
			return i + 1
		}
		if b[i] != ',' {
			return 0
		}
		i = skipSpace(b, i+1)
	}
}

// skipSpace returns the index of the first byte of b at or after i that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// plainString returns the contents of the JSON string that starts at
// b[i] and the index after its closing quote, or end 0 unless the string
// is whole and made of unescaped printable ASCII only — the strings
// whose bytes are their value.
func plainString(b []byte, i int) (s []byte, end int) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1
		case c < ' ' || c > '~' || c == '\\':
			return nil, 0
		}
	}
	return nil, 0
}

// numberEnd returns the index after the JSON number that starts at b[i],
// or 0 if the bytes there do not follow the grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. A number that runs to
// the end of b may continue in the next read; the caller declines it
// there because no delimiter follows.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = skipDigits(b, i); i == 0 {
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); i == 0 {
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i = skipDigits(b, i)
	}
	return i
}

// skipDigits returns the index after the run of digits that starts at
// b[i], or 0 if there is none.
func skipDigits(b []byte, i int) int {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start {
		return 0
	}
	return i
}
