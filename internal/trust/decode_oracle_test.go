package trust

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// The /api/readings decode loop as it stood before DecodeReadings: one
// json.Decoder driven token by token, reflection into submitRequest per
// element. Kept as the reference the differential test and the fuzz
// target compare the hand-written decoder against. Only the sinks
// changed: a decoded reading goes to yield where the handler appended to
// its chunk, and an error is returned where the handler wrote a 400.

func oraclePeekNonSpace(br *bufio.Reader) (byte, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return 0, err
		}
		return b, nil
	}
}

func (s submitRequest) oracleReading(now func() time.Time) Reading {
	at := s.At
	if at.IsZero() {
		at = now()
	}
	return Reading{Node: NodeID(s.Node), SignalID: s.SignalID, PowerDBm: s.PowerDBm, At: at, Key: s.Key, Trace: s.Trace}
}

func oracleDecodeReadings(body io.Reader, now func() time.Time, yield func(Reading)) (batch bool, err error) {
	br := bufio.NewReaderSize(io.LimitReader(body, maxReadingsBody), 32<<10)
	first, err := oraclePeekNonSpace(br)
	if err != nil {
		return false, fmt.Errorf("empty or unreadable body")
	}
	dec := json.NewDecoder(br)
	if first != '[' {
		// Single-object form.
		var req submitRequest
		if err := dec.Decode(&req); err != nil {
			return false, err
		}
		yield(req.oracleReading(now))
		return false, nil
	}
	if _, err := dec.Token(); err != nil { // consume '['
		return true, err
	}
	for i := 0; dec.More(); i++ {
		var req submitRequest
		if err := dec.Decode(&req); err != nil {
			return true, fmt.Errorf("batch element %d: %v", i, err)
		}
		yield(req.oracleReading(now))
	}
	if _, err := dec.Token(); err != nil { // consume ']'
		return true, err
	}
	return true, nil
}
