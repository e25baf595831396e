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
// test can stop an operation between any two of its steps — mid-rotation,
// mid-prune, mid-import — where a byte budget, which only fires inside a
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

// legacyFixture is a spool file as agents wrote it before the spool moved
// onto the WAL: duplicate and re-put keys, acks that are not a prefix, an
// ack of a key never put, an op from some other version.
const legacyFixture = `{"op":"put","key":"k0","payload":{"n":0}}
{"op":"put","key":"k1","payload":{"n":1}}
{"op":"put","key":"k2","payload":{"n":2}}
{"op":"ack","keys":["k1"]}
{"op":"put","key":"k3","payload":{"n":3}}
{"op":"put","key":"k0","payload":{"n":99}}
{"op":"ack","keys":["k3","gone"]}
{"op":"put","key":"k1","payload":{"n":11}}
{"op":"future","keys":["k2"]}
{"op":"put","key":"k4","payload":{"n":4}}`

// legacyWant is what the fixture's pending set was: keys in arrival
// order with their payloads' n.
var legacyWant = []Record{
	{"k0", []byte(`{"n":0}`)},
	{"k2", []byte(`{"n":2}`)},
	{"k1", []byte(`{"n":11}`)},
	{"k4", []byte(`{"n":4}`)},
}

func TestSpoolImportsLegacyJSONL(t *testing.T) {
	for name, file := range map[string]string{
		"last line without newline": legacyFixture,
		"trailing newline":          legacyFixture + "\n",
		"torn tail":                 legacyFixture + "\n" + `{"op":"put","key":"k5","pay`,
		"torn line then more":       legacyFixture + "\n{\"op\":\"put\",\"k\n" + `{"op":"put","key":"k6","payload":{}}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "agentd.spool.jsonl")
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenSpool(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Peek(0); !reflect.DeepEqual(got, legacyWant) {
				t.Fatalf("imported %s, want %s", records(got), records(legacyWant))
			}
			if st, err := os.Stat(path); err != nil || !st.IsDir() {
				t.Fatalf("%s is not the spool's WAL directory after import (%v)", path, err)
			}
			if _, err := os.Stat(path + ".import"); !os.IsNotExist(err) {
				t.Fatalf("import directory left behind: %v", err)
			}
			// The imported spool is an ordinary one: it drains and appends,
			// and the next open does not import again.
			if err := s.Ack("k0"); err != nil {
				t.Fatal(err)
			}
			mustAppend(t, s, "k7", 7)
			s.Close()
			s2, err := OpenSpool(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got := keysOf(s2); !reflect.DeepEqual(got, []string{"k2", "k1", "k4", "k7"}) {
				t.Fatalf("after reopen: %v", got)
			}
		})
	}
}

func records(rs []Record) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s=%s ", r.Key, r.Payload)
	}
	return b.String()
}

// TestSpoolImportPowerCut cuts the power before every directory step of
// the import and at byte offsets inside its writes, twice in a row (the
// second cut lands in the retried import), and checks that the disk
// always holds either the untouched old file or a complete new spool:
// the next open recovers exactly the file's pending records.
func TestSpoolImportPowerCut(t *testing.T) {
	legacy := []byte(legacyFixture + "\n")
	rng := rand.New(rand.NewSource(1))
	cut := func(path string, arm func(*stepCutFS)) {
		fs := &stepCutFS{PowerCutFS: chaos.NewPowerCutFS(wal.OS{}, rng.Int63())}
		arm(fs)
		if s, err := openSpool(path, wal.Options{FS: fs}); err == nil {
			s.Close()
		}
		fs.Crash()
		if st, err := os.Stat(path); err == nil && !st.IsDir() {
			if blob, _ := os.ReadFile(path); !reflect.DeepEqual(blob, legacy) {
				t.Fatalf("old spool file changed before the import committed")
			}
		} else if os.IsNotExist(err) {
			if _, err := os.Stat(path + ".import"); err != nil {
				t.Fatalf("neither the old file nor the new spool survived: %v", err)
			}
		}
	}
	check := func(path, what string) {
		s, err := OpenSpool(path)
		if err != nil {
			t.Fatalf("%s: reopen: %v", what, err)
		}
		defer s.Close()
		if got := s.Peek(0); !reflect.DeepEqual(got, legacyWant) {
			t.Fatalf("%s: recovered %s, want %s", what, records(got), records(legacyWant))
		}
	}
	for after := 1; after <= 16; after++ {
		path := filepath.Join(t.TempDir(), "spool.jsonl")
		if err := os.WriteFile(path, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		cut(path, func(fs *stepCutFS) { fs.after = after })
		again := 1 + rng.Intn(16)
		cut(path, func(fs *stepCutFS) { fs.after = again })
		check(path, fmt.Sprintf("cut before steps %d then %d", after, again))
	}
	for budget := int64(1); budget < 260; budget += 9 {
		path := filepath.Join(t.TempDir(), "spool.jsonl")
		if err := os.WriteFile(path, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		cut(path, func(fs *stepCutFS) { fs.ArmCrash(budget) })
		check(path, fmt.Sprintf("cut after %d bytes", budget))
	}
}

// The spool crash matrix is the agent side of the collector's
// TestPowerCutCrashMatrix (internal/store): a spool on small segments
// under randomized power cuts — torn writes, fsync errors, directory
// entries vanishing, cuts between the steps of a rotation, a prune or a
// legacy import — must, after every cut, recover
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
		importing := cycle > 0 && rng.Float64() < 0.1
		if importing {
			// An agent upgraded from the JSONL spool: the pending records
			// as the old format, at a fresh path.
			path = filepath.Join(root, fmt.Sprintf("spool-%d", cycle))
			if err := writeLegacy(path, recovered); err != nil {
				t.Fatal(err)
			}
		}
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
		if importing {
			arm()
		}
		s, err := openSpool(path, wal.Options{FS: fs, SegmentBytes: 256})
		if err == nil {
			if !importing {
				arm()
			}
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

// writeLegacy writes recs as a JSONL spool file of the old format, with
// an acked record in the middle and a torn tail.
func writeLegacy(path string, recs []Record) error {
	var b strings.Builder
	for i, r := range recs {
		fmt.Fprintf(&b, "{\"op\":\"put\",\"key\":%q,\"payload\":%s}\n", r.Key, r.Payload)
		if i == len(recs)/2 {
			b.WriteString(`{"op":"put","key":"delivered","payload":{}}` + "\n")
			b.WriteString(`{"op":"ack","keys":["delivered"]}` + "\n")
		}
	}
	b.WriteString(`{"op":"put","key":"torn","pay`)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// copyTree copies a spool — a WAL directory, or a legacy file — for the
// CI artifact.
func copyTree(src, dst string) error {
	st, err := os.Stat(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if !st.IsDir() {
		blob, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, filepath.Base(src)), blob, 0o644)
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
