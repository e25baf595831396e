package store_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"sensorcal/internal/resilience/chaos"
	"sensorcal/internal/store"
	"sensorcal/internal/store/wal"
	"sensorcal/internal/trust"
)

// The crash matrix is the tentpole proof: a trust store under randomized
// power cuts — torn writes, fsync errors, entries vanishing from
// unsynced directories — must never lose an acknowledged mutation and
// never half-apply one. Each cycle opens the same directory, issues
// mutations through the TrustLog while a byte budget counts down to a
// mid-write power cut, then reopens with the real filesystem and checks
// the recovered ledger against the model:
//
//	acked ⊆ recovered ⊆ attempted
//
// per node: every acknowledged registration is present, and every
// recovered score lies between the last acknowledged and the last
// attempted value (scores are driven monotonically so the interval
// check is exact).
//
// Environment knobs (the CI crash-matrix step sets them):
//
//	CRASH_MATRIX_ITERS — crash/restart cycles (default 200; 40 with -short)
//	CRASH_MATRIX_SEED  — RNG seed (default 1; failures replay exactly)
//	CRASH_MATRIX_OUT   — directory to copy the failing WAL dir into

type nodeModel struct {
	ackedReg  bool        // registration acknowledged
	acked     trust.Score // last acknowledged score
	attempted trust.Score // last attempted (possibly unacked) score
}

func TestPowerCutCrashMatrix(t *testing.T) {
	iters := 200
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
	seed := int64(1)
	if v := os.Getenv("CRASH_MATRIX_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CRASH_MATRIX_SEED=%q: %v", v, err)
		}
		seed = n
	}
	rng := rand.New(rand.NewSource(seed))
	dir := filepath.Join(t.TempDir(), "wal")
	epoch := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	model := make(map[trust.NodeID]*nodeModel)
	fail := func(cycle int, format string, args ...any) {
		t.Helper()
		if out := os.Getenv("CRASH_MATRIX_OUT"); out != "" {
			if err := copyDir(dir, filepath.Join(out, "crash-matrix-wal")); err != nil {
				t.Logf("copying failing wal dir: %v", err)
			} else {
				t.Logf("failing wal dir copied to %s", filepath.Join(out, "crash-matrix-wal"))
			}
		}
		t.Fatalf("cycle %d (seed %d): %s", cycle, seed, fmt.Sprintf(format, args...))
	}

	nextNode := 0
	opts := wal.Options{SegmentBytes: 512}

	for cycle := 0; cycle < iters; cycle++ {
		// Recovery itself runs fault-free: the machine that reboots after
		// the power cut has working hardware.
		fs := chaos.NewPowerCutFS(wal.OS{}, seed+int64(cycle)*7919)
		cycleOpts := opts
		cycleOpts.FS = fs
		tl, err := store.OpenTrustLog(dir, cycleOpts)
		if err != nil {
			fail(cycle, "open: %v", err)
		}
		ledger := trust.NewLedger()
		if _, err := tl.Recover(ledger, epoch); err != nil {
			fail(cycle, "recover: %v", err)
		}

		// The recovered ledger is the new ground truth: everything it
		// holds is durable, anything it dropped was never acknowledged.
		for id, m := range model {
			_, present := ledger.Node(id)
			if m.ackedReg && !present {
				fail(cycle, "acknowledged registration of %s lost", id)
			}
			if !present {
				delete(model, id)
				continue
			}
			got := ledger.Trust(id)
			if got < m.acked || got > m.attempted {
				fail(cycle, "node %s recovered score %v outside [acked %v, attempted %v]",
					id, got, m.acked, m.attempted)
			}
			m.ackedReg = true
			m.acked, m.attempted = got, got
		}
		for _, n := range ledger.Nodes() {
			if _, known := model[n.ID]; !known {
				fail(cycle, "node %s recovered but never registered", n.ID)
			}
		}

		// Lights can now go out at any byte; some writes tear short, some
		// fsyncs lie.
		fs.ShortWriteRate = 0.03
		fs.FsyncErrorRate = 0.03
		cleanCycle := rng.Float64() < 0.2
		if !cleanCycle {
			fs.ArmCrash(int64(rng.Intn(4000)) + 1)
		}

		ops := 10 + rng.Intn(30)
		var ids []trust.NodeID
		for id := range model {
			ids = append(ids, id)
		}
		for op := 0; op < ops; op++ {
			var err error
			switch {
			case len(ids) == 0 || rng.Float64() < 0.3:
				id := trust.NodeID(fmt.Sprintf("node-%05d", nextNode))
				nextNode++
				n := trust.Node{ID: id, Operator: "op", Registered: epoch}
				// Mirror the production order: ledger first, durable append
				// second, acknowledge only if the append succeeded.
				if regErr := ledger.Register(n); regErr != nil {
					fail(cycle, "model register: %v", regErr)
				}
				model[id] = &nodeModel{acked: 0, attempted: ledger.Trust(id)}
				ids = append(ids, id)
				err = tl.AppendRegister(n)
				if err == nil {
					model[id].ackedReg = true
					model[id].acked = ledger.Trust(id)
				}
			case rng.Float64() < 0.1:
				err = tl.Compact(ledger, epoch)
			default:
				k := 1 + rng.Intn(3)
				batch := make([]trust.ScoreUpdate, 0, k)
				seen := map[trust.NodeID]bool{}
				for len(batch) < k {
					id := ids[rng.Intn(len(ids))]
					if seen[id] {
						break
					}
					seen[id] = true
					// Scores only ever rise, so the acked/attempted interval
					// check is exact.
					next := ledger.Trust(id) + trust.Score(float64(1+rng.Intn(64))/1024)
					if next > 1 {
						next = 1
					}
					ledger.SetScore(id, next)
					model[id].attempted = next
					batch = append(batch, trust.ScoreUpdate{Node: id, Score: next})
				}
				if len(batch) == 0 {
					continue
				}
				err = tl.AppendScores(epoch, batch)
				if err == nil {
					for _, u := range batch {
						model[u.Node].acked = u.Score
					}
				}
			}
			if errors.Is(err, chaos.ErrPowerCut) {
				break
			}
			// Other errors are the injected transients (short write, fsync
			// lie): the mutation was not acknowledged; keep going, exactly
			// as the collector would.
		}
		if cleanCycle {
			if err := tl.Close(); err != nil {
				fail(cycle, "clean close: %v", err)
			}
		} else {
			fs.Crash() // fire even if the budget never ran out mid-write
			tl.Close()
		}

		// Reboot: the next iteration (and this sanity pass) reads the disk
		// as a fresh process would.
		check, err := store.OpenTrustLog(dir, opts)
		if err != nil {
			fail(cycle, "post-crash open with real fs: %v", err)
		}
		l2 := trust.NewLedger()
		if _, err := check.Recover(l2, epoch); err != nil {
			fail(cycle, "post-crash recover: %v", err)
		}
		for id, m := range model {
			if !m.ackedReg {
				continue
			}
			if _, ok := l2.Node(id); !ok {
				fail(cycle, "acknowledged registration of %s lost after crash", id)
			}
			got := l2.Trust(id)
			if got < m.acked || got > m.attempted {
				fail(cycle, "node %s post-crash score %v outside [acked %v, attempted %v]",
					id, got, m.acked, m.attempted)
			}
		}
		check.Close()
	}
}

// copyDir copies a flat directory (the WAL layout has no subdirs).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
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
