package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// On-disk record frame:
//
//	[u32 LE payload length][u32 LE CRC32C(payload)][payload bytes]
//
// CRC32C (Castagnoli) is the same polynomial the big log-structured
// stores use; a torn write — a frame cut at any byte by a power cut —
// fails either the length read or the checksum, and recovery truncates
// the file back to the last whole frame. The checksum also catches a
// corrupted length field with overwhelming probability: garbage length
// bytes point the payload window at bytes whose CRC cannot match.

const (
	frameHeaderBytes = 8
	// MaxRecordBytes bounds one record; a frame claiming more is treated
	// as corruption, not an allocation request.
	MaxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks the scan position where a segment stops parsing: a
// partial header, a short payload, or a checksum mismatch. Everything
// before it is intact; everything from it on is the interrupted tail.
var errTorn = errors.New("store: torn record")

// appendFrame appends payload as one frame to dst and returns it.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("store: refusing to append an empty record")
	}
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("store: record of %d bytes exceeds the %d byte bound", len(payload), MaxRecordBytes)
	}
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return dst, nil
}

// readFrame reads one frame from r. It returns io.EOF at a clean end of
// file and errTorn when the remaining bytes do not form a whole, valid
// frame. The returned payload aliases buf when it fits, else a fresh
// allocation.
func readFrame(r *bufio.Reader, buf []byte) (payload []byte, frameLen int64, err error) {
	var hdr [frameHeaderBytes]byte
	n, err := io.ReadFull(r, hdr[:])
	if n == 0 && err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, 0, errTorn // partial header
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > MaxRecordBytes {
		return nil, 0, errTorn // corrupt length
	}
	if int(length) <= cap(buf) {
		payload = buf[:length]
	} else {
		payload = make([]byte, length)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, errTorn // short payload
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, 0, errTorn // checksum mismatch
	}
	return payload, frameHeaderBytes + int64(length), nil
}
