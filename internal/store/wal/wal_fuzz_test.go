package wal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// memFS is an in-memory FS of flat files that lets the fuzzer run the
// WAL's real open and replay code without disk I/O per input. ReadDir
// lists files in creation order — name order for WAL segments — rather
// than a map's order, which would make the fuzzer's coverage signal
// differ from run to run of one input.
type memFS struct {
	names []string
	data  map[string][]byte
}

func newMemFS() *memFS { return &memFS{data: make(map[string][]byte)} }

// put creates name with contents b.
func (m *memFS) put(name string, b []byte) {
	if _, ok := m.data[name]; !ok {
		m.names = append(m.names, name)
	}
	m.data[name] = b
}

type memFile struct {
	fs   *memFS
	name string
}

func (f memFile) Write(b []byte) (int, error) {
	f.fs.data[f.name] = append(f.fs.data[f.name], b...)
	return len(b), nil
}
func (memFile) Sync() error  { return nil }
func (memFile) Close() error { return nil }

func (m *memFS) OpenRead(name string) (io.ReadCloser, error) {
	b, ok := m.data[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (m *memFS) Create(name string) (File, error) {
	m.put(name, []byte{})
	return memFile{m, name}, nil
}

func (m *memFS) OpenAppend(name string) (File, error) {
	if _, ok := m.data[name]; !ok {
		m.put(name, []byte{})
	}
	return memFile{m, name}, nil
}

func (m *memFS) Remove(name string) error {
	delete(m.data, name)
	for i, n := range m.names {
		if n == name {
			m.names = append(m.names[:i], m.names[i+1:]...)
			break
		}
	}
	return nil
}

func (m *memFS) Rename(from, to string) error {
	b := m.data[from]
	m.Remove(from)
	m.put(to, b)
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	m.data[name] = m.data[name][:size]
	return nil
}
func (*memFS) SyncDir(string) error  { return nil }
func (*memFS) MkdirAll(string) error { return nil }

func (m *memFS) ReadDir(dir string) ([]string, error) {
	var names []string
	for _, p := range m.names {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	return names, nil
}

func (m *memFS) Size(name string) (int64, error) {
	b, ok := m.data[name]
	if !ok {
		return 0, os.ErrNotExist
	}
	return int64(len(b)), nil
}

// FuzzWALReplay feeds arbitrary bytes to the frame reader as a segment
// file, the bytes both the collector's trust log and the agent's spool
// trust after a crash. Neither placement may panic.
//
// As the tail segment, the file must open with its torn bytes truncated
// and replay exactly the whole, checksummed frames at its front:
// re-framing what Replay yielded reproduces the kept prefix byte for
// byte, so no frame whose CRC fails can be among them. As a sealed
// segment (a valid tail after it), anything other than whole frames end
// to end is a Replay and ScanSealed error; whole frames are not.
//
// Run it with a bounded minimizer (-fuzzminimizetime 100x, as CI does).
// With the default 60-s minimization, a 10-s run on 2 vCPUs stalls at
// about a thousand executions minimizing its first new input; bounded,
// it makes about forty thousand.
func FuzzWALReplay(f *testing.F) {
	var valid []byte
	for _, p := range []string{"a", "record-0001", strings.Repeat("x", 300)} {
		valid, _ = appendFrame(valid, []byte(p))
	}
	flipped := append([]byte(nil), valid...)
	flipped[12] ^= 1
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// As the tail.
		fs := newMemFS()
		fs.put("wal/"+segName(1), bytes.Clone(data))
		w, err := OpenWAL("wal", Options{FS: fs})
		if err != nil {
			t.Fatalf("open with the bytes as the tail: %v", err)
		}
		var whole []byte
		if _, err := w.Replay(func(p []byte) error {
			var err error
			whole, err = appendFrame(whole, p)
			return err
		}); err != nil {
			t.Fatalf("replay of a repaired tail: %v", err)
		}
		if !bytes.HasPrefix(data, whole) {
			t.Fatalf("replayed frames are not the segment's prefix")
		}
		if torn := w.Recovery().TornBytes; torn != int64(len(data)-len(whole)) {
			t.Fatalf("torn bytes %d, want %d", torn, len(data)-len(whole))
		}
		if kept := fs.data["wal/"+segName(1)]; !bytes.Equal(kept, whole) {
			t.Fatalf("tail kept %d bytes, want the %d of whole frames", len(kept), len(whole))
		}

		// As a sealed segment.
		fs = newMemFS()
		fs.put("wal/"+segName(1), bytes.Clone(data))
		fs.put("wal/"+segName(2), valid)
		if w, err = OpenWAL("wal", Options{FS: fs}); err != nil {
			t.Fatalf("open with the bytes sealed: %v", err)
		}
		intact := len(whole) == len(data)
		_, replayErr := w.Replay(func([]byte) error { return nil })
		_, scanErr := w.ScanSealed(1, func([]byte) error { return nil })
		if intact != (replayErr == nil) || intact != (scanErr == nil) {
			t.Fatalf("sealed segment with %d of %d bytes in whole frames: Replay %v, ScanSealed %v",
				len(whole), len(data), replayErr, scanErr)
		}
	})
}
