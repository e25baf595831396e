package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sensorcal/internal/resilience/chaos"
	"sensorcal/internal/store/wal"
)

// stepCutFS cuts the power just before the after-th directory-level
// mutation (create, remove, rename, truncate, mkdir, dir fsync), so a
// test can stop an operation between any two of its steps — mid-rotation
// or mid-prune — where a byte budget, which only fires inside a
// write, cannot.
type stepCutFS struct {
	*chaos.PowerCutFS
	after, n int
}

func (f *stepCutFS) cut() bool {
	f.n++
	if f.n == f.after {
		f.Crash()
		return true
	}
	return false
}

func (f *stepCutFS) step(op func() error) error {
	if f.cut() {
		return chaos.ErrPowerCut
	}
	return op()
}

func (f *stepCutFS) Create(name string) (wal.File, error) {
	if f.cut() {
		return nil, chaos.ErrPowerCut
	}
	return f.PowerCutFS.Create(name)
}

func (f *stepCutFS) OpenAppend(name string) (wal.File, error) {
	if f.cut() {
		return nil, chaos.ErrPowerCut
	}
	return f.PowerCutFS.OpenAppend(name)
}

func (f *stepCutFS) Remove(name string) error {
	return f.step(func() error { return f.PowerCutFS.Remove(name) })
}

func (f *stepCutFS) Rename(oldpath, newpath string) error {
	return f.step(func() error { return f.PowerCutFS.Rename(oldpath, newpath) })
}

func (f *stepCutFS) Truncate(name string, size int64) error {
	return f.step(func() error { return f.PowerCutFS.Truncate(name, size) })
}

func (f *stepCutFS) SyncDir(dir string) error {
	return f.step(func() error { return f.PowerCutFS.SyncDir(dir) })
}

func (f *stepCutFS) MkdirAll(dir string) error {
	return f.step(func() error { return f.PowerCutFS.MkdirAll(dir) })
}

// TestSpoolRefusesFile: a file at the spool path — the JSONL spool
// agents wrote before the spool moved onto the WAL — fails the open with
// an error naming the path, and is left byte for byte as it was.
func TestSpoolRefusesFile(t *testing.T) {
	legacy := []byte(`{"op":"put","key":"k0","payload":{"n":0}}` + "\n" + `{"op":"ack","keys":["k0"]}` + "\n")
	path := filepath.Join(t.TempDir(), "agentd.spool.jsonl")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSpool(path)
	if err == nil {
		s.Close()
		t.Fatalf("OpenSpool on a file succeeded")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the path %s", err, path)
	}
	if blob, err := os.ReadFile(path); err != nil || !reflect.DeepEqual(blob, legacy) {
		t.Fatalf("spool file changed by the failed open (%v): %q", err, blob)
	}
}

// The spool crash matrix is the agent side of the collector's
// TestPowerCutCrashMatrix (internal/store): a spool on small segments
// under randomized power cuts — torn writes, fsync errors, directory
// entries vanishing, cuts between the steps of a rotation or a prune —
// must, after every cut, recover
//
//	durable ⊆ recovered ⊆ attempted, recovered ∩ acked = ∅, in FIFO order
//
// where durable is every record whose Append returned nil and whose Ack
// was never attempted, and acked every record whose Ack returned nil.
// It reads the same knobs as the collector's matrix: CRASH_MATRIX_ITERS
// (default 200; 40 with -short), CRASH_MATRIX_SEED (default 1) and
// CRASH_MATRIX_OUT (where the failing spool is copied).
func TestSpoolPowerCutCrashMatrix(t *testing.T) {
	iters, seed := 200, int64(1)
	if testing.Short() {
		iters = 40
	}
	if v := os.Getenv("CRASH_MATRIX_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CRASH_MATRIX_ITERS=%q: %v", v, err)
		}
		iters = n
	}
	if v := os.Getenv("CRASH_MATRIX_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CRASH_MATRIX_SEED=%q: %v", v, err)
		}
		seed = n
	}
	rng := rand.New(rand.NewSource(seed))
	root := t.TempDir()
	path := filepath.Join(root, "spool-0")

	type state int
	const (
		durable state = iota // Append returned nil, Ack never attempted
		maybe                // an Append or Ack was attempted and failed
		acked                // Ack returned nil
	)
	status := map[string]state{} // every key attempted and not yet ruled out
	attempt := map[string]int{}  // append order
	next := 0
	var recovered []Record // the last reboot's pending set

	fail := func(cycle int, format string, args ...any) {
		t.Helper()
		if out := os.Getenv("CRASH_MATRIX_OUT"); out != "" {
			dst := filepath.Join(out, "crash-matrix-spool")
			if err := copyTree(path, dst); err != nil {
				t.Logf("copying failing spool: %v", err)
			} else {
				t.Logf("failing spool copied to %s", dst)
			}
		}
		t.Fatalf("cycle %d (seed %d): %s", cycle, seed, fmt.Sprintf(format, args...))
	}

	for cycle := 0; cycle < iters; cycle++ {
		fs := &stepCutFS{PowerCutFS: chaos.NewPowerCutFS(wal.OS{}, seed+int64(cycle)*7919)}
		// This draw once chose a legacy-import cycle; it stays so every
		// other cycle's seeded cuts are what they were.
		_ = cycle > 0 && rng.Float64() < 0.1
		clean := rng.Float64() < 0.2
		arm := func() {
			fs.ShortWriteRate, fs.FsyncErrorRate = 0.03, 0.03
			switch {
			case clean:
			case rng.Float64() < 0.5:
				fs.ArmCrash(int64(rng.Intn(3000)) + 1)
			default:
				fs.after = fs.n + 1 + rng.Intn(40)
			}
		}
		s, err := openSpool(path, wal.Options{FS: fs, SegmentBytes: 256})
		if err == nil {
			arm()
			// Each cycle leans towards appending or towards draining, so the
			// backlog wanders across many segments and back.
			pAppend := 0.3 + 0.5*rng.Float64()
			for ops := 10 + rng.Intn(40); ops > 0; ops-- {
				if rng.Float64() < pAppend {
					k := fmt.Sprintf("r%06d", next)
					attempt[k], status[k] = next, maybe
					next++
					if err = s.Append(k, testPayload{N: attempt[k]}); err == nil {
						status[k] = durable
					}
				} else {
					var keys []string
					for _, r := range s.Peek(1 + rng.Intn(4)) {
						keys = append(keys, r.Key)
						status[r.Key] = maybe
					}
					if err = s.Ack(keys...); err == nil {
						for _, k := range keys {
							status[k] = acked
						}
					}
				}
				if errors.Is(err, chaos.ErrPowerCut) {
					break
				}
				// Other errors are the injected transients: not acknowledged,
				// and the agent carries on.
			}
			if !clean {
				fs.Crash()
			}
			s.Close()
		} else if !clean {
			fs.Crash()
		}

		// Reboot: read the disk as a fresh process would.
		check, err := OpenSpool(path)
		if err != nil {
			fail(cycle, "post-crash open: %v", err)
		}
		recovered = check.Peek(0)
		check.Close()
		seen := map[string]bool{}
		last := -1
		for _, r := range recovered {
			st, ok := status[r.Key]
			switch {
			case !ok:
				fail(cycle, "recovered %s, which was never attempted or is long gone", r.Key)
			case st == acked:
				fail(cycle, "recovered %s after its Ack returned nil", r.Key)
			case attempt[r.Key] <= last:
				fail(cycle, "recovered %s out of FIFO order", r.Key)
			}
			last, seen[r.Key] = attempt[r.Key], true
		}
		for k, st := range status {
			if st == durable && !seen[k] {
				fail(cycle, "lost %s: its Append returned nil and it was never acked", k)
			}
			// What recovered is durable now; everything else is gone for good.
			if seen[k] {
				status[k] = durable
			} else {
				delete(status, k)
			}
		}
	}
}

// copyTree copies a spool's WAL directory for the CI artifact.
func copyTree(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}
