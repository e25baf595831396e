// Command bench is the one benchmark of the fleet backend: four named
// workloads over the system as cmd/spectrumd ships it, the end-to-end
// metrics a buyer or operator would see, and, in a separate traced run, a
// cost ledger layer by layer, measured from outside the program. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one workload
//	bench [-seed N] [-seconds S] [-trace 0|1]            all four, each in a child process
//	bench compare OLD.json NEW.json                      judge two records by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// logOut takes the progress and diagnostics; results go to stdout.
var logOut io.Writer = os.Stderr

// setupRepeats is how many times a timed workload sets its system up;
// setup_s is the median, and the last set-up is the one measured.
const setupRepeats = 5

// runEnv is what one workload run is given.
type runEnv struct {
	workload string
	seed     uint64
	seconds  float64
	// rec is the span recorder of a traced run, nil otherwise.
	rec *recorder
	// mini marks a short side run made for the ledger of another
	// workload: one set-up, no pre-timing gates, nothing saved.
	mini   bool
	setups int
}

// saveSpans writes a traced run's spans under the build directory.
func (e *runEnv) saveSpans() error {
	dir := filepath.Join(outRoot, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed)), e.rec.all())
}

type workload struct {
	name string
	run  func(*runEnv) (*record, error)
}

var workloads = []workload{
	{"ingest_http", func(e *runEnv) (*record, error) { return runIngest(e, 1) }},
	{"ingest_ring3", func(e *runEnv) (*record, error) { return runIngest(e, 3) }},
	{"backlog_close", runBacklog},
	{"stream_frames", runStream},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// retryStolenAbove is the share of stolen slices beyond which a run is
// measured again, at most measureAttempts times in all. On the box this
// was built on the hypervisor now and then takes over 5 % of the CPU for
// a minute or two; a run inside such a spell measures the neighbours,
// and what the cleaner-half rule of cleanSlices keeps of it is still
// their leavings.
const (
	retryStolenAbove = 0.5
	measureAttempts  = 3
)

// measure runs the workload and, while most of the run was stolen, again
// from scratch (fresh set-up, fresh recorder); the cleanest run is the
// record.
func measure(w workload, newEnv func() *runEnv) (*record, *runEnv, error) {
	var best *record
	var bestEnv *runEnv
	for attempt := 1; ; attempt++ {
		env := newEnv()
		r, err := w.run(env)
		if err != nil {
			return nil, nil, err
		}
		if best == nil || r.StolenShare < best.StolenShare {
			best, bestEnv = r, env
		}
		if best.StolenShare <= retryStolenAbove || attempt == measureAttempts {
			return best, bestEnv, nil
		}
		fmt.Fprintf(logOut, "bench: the hypervisor stole from %.0f %% of the run; measuring %s again\n", 100*r.StolenShare, w.name)
		runtime.GC() // the next run reuses this one's heap rather than adding to peak_rss_mb
	}
}

// runOne runs a workload untraced, or traced with the full ledger.
//
// A traced run carries every per-layer metric, whatever the workload. The
// probes price each layer's public calls in isolation; the spans price
// the layers on this workload's path in place. A layer that is not on
// the path (the ring on ingest_http, the stream service on the trust
// workloads) is measured in a one-second traced side run of a workload
// that does use it, and the value is marked with that source, so a
// reader never mistakes it for this workload's own.
func runOne(w workload, seed uint64, seconds float64, traced bool) (*record, error) {
	r, env, err := measure(w, func() *runEnv {
		e := &runEnv{workload: w.name, seed: seed, seconds: seconds, setups: setupRepeats}
		if traced {
			e.rec = newRecorder()
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	if !traced {
		r.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
		return r, nil
	}
	if err := env.saveSpans(); err != nil {
		return nil, err
	}
	if err := runProbes(seed, r.Metrics); err != nil {
		return nil, err
	}
	for _, side := range workloads {
		if side.name == w.name {
			continue
		}
		fmt.Fprintf(logOut, "bench: side run of %s for the layers %s does not reach\n", side.name, w.name)
		sr, err := side.run(&runEnv{workload: side.name, seed: seed, seconds: 1, rec: newRecorder(), mini: true, setups: 1})
		if err != nil {
			return nil, fmt.Errorf("side run of %s: %w", side.name, err)
		}
		for _, d := range perLayer {
			if _, have := r.Metrics[d.Name]; have {
				continue
			}
			if m, ok := sr.Metrics[d.Name]; ok {
				m.Source = side.name
				r.Metrics[d.Name] = m
			}
		}
	}
	return r, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four, each in a child process")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 for the traced run that produces the per-layer metrics")
		out     = flag.String("record", "", "also write the full record document to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-record FILE] | bench compare OLD.json NEW.json")
		os.Exit(2)
	}
	doc := &document{Schema: schemaVersion, Host: thisHost(), Seed: *seed, Seconds: *seconds, Trace: *trace}
	if *name == "" {
		if err := runAll(doc, *out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r, err := runOne(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line, err := resultOf(r, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	doc.Workloads = []*record{r}
	if *out != "" {
		if err := writeDocument(*out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	printRecord(os.Stdout, r)
	last, _ := json.Marshal(line)
	fmt.Printf("%s\n", last)
}

// printRecord lists every metric by name with its unit and evidence.
func printRecord(w io.Writer, r *record) {
	fmt.Fprintf(w, "# %s: attempted %d, accepted %d, failed %d (%.4f)\n", r.Workload, r.Attempted, r.Accepted, r.Failed, r.failedFraction())
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		var notes []string
		if m.Samples > 0 {
			notes = append(notes, fmt.Sprintf("n=%d", m.Samples))
		}
		if m.Pct > 0 {
			notes = append(notes, fmt.Sprintf("p%g", m.Pct))
		}
		if m.Source != "" {
			notes = append(notes, "from "+m.Source)
		}
		fmt.Fprintf(w, "# %-42s %14.4f %-8s %s\n", n, m.Value, m.Unit, strings.Join(notes, " "))
	}
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# count %-36s %s\n", k, r.Counts[k])
	}
}

// runAll runs every workload in a fresh child process of this binary, so
// no workload inherits another's heap, pools or peak RSS, and prints the
// combined document.
func runAll(doc *document, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := scratchDir("records-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, w := range workloads {
		path := filepath.Join(tmp, w.name+".json")
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(doc.Seed),
			"-seconds", fmt.Sprint(doc.Seconds), "-trace", fmt.Sprint(doc.Trace), "-record", path)
		cmd.Stdout = logOut
		cmd.Stderr = logOut
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		child, err := readDocument(path)
		if err != nil {
			return err
		}
		doc.Workloads = append(doc.Workloads, child.Workloads...)
	}
	if out != "" {
		if err := writeDocument(out, doc); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
