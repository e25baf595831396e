package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
)

// compare judges NEW against OLD by the bounds BENCHMARK.json fixes. Each
// side is one record document or several, comma-separated, whose medians
// are taken: the noise-banded, same-host comparison of two commits.

// setupSlackS is the absolute slack of setup_s: a set-up that takes a
// fifth of a second moves by more than its relative bound on a busy box.
const setupSlackS = 0.25

type verdict string

const (
	improved  verdict = "improved"
	unchanged verdict = "unchanged"
	regressed verdict = "regressed"
)

// judge compares one metric. ratio is new/old.
func judge(d metricDef, old, new float64) (ratio float64, v verdict) {
	if old == 0 {
		if new == 0 {
			return 1, unchanged
		}
		return 0, regressed
	}
	ratio = new / old
	worse, better := ratio > 1+d.Bound, ratio < 1-d.Bound
	if d.Better == "higher" {
		worse, better = ratio < 1-d.Bound, ratio > 1+d.Bound
	}
	if d.Name == "setup_s" && new-old <= setupSlackS {
		worse = false
	}
	switch {
	case worse:
		return ratio, regressed
	case better:
		return ratio, improved
	}
	return ratio, unchanged
}

// loadBounds reads the end-to-end definitions from BENCHMARK.json.
func loadBounds(path string) ([]metricDef, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end metrics", path)
	}
	return b.EndToEnd, nil
}

// side is one side of the comparison: documents that agree on what was
// run, reduced to the median of each metric per workload.
type side struct {
	doc       *document // the first document: host, seed, schema
	sizes     map[string]map[string]float64
	values    map[string]map[string][]float64 // workload → metric → one value per document
	attempted map[string]int64
	failed    map[string]int64
}

func loadSide(paths string) (*side, error) {
	s := &side{sizes: map[string]map[string]float64{}, values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	files := strings.Split(paths, ",")
	for _, p := range files {
		d, err := readDocument(p)
		if err != nil {
			return nil, err
		}
		if s.doc == nil {
			s.doc = d
		} else if why := incomparable(s.doc, d); why != "" {
			return nil, fmt.Errorf("%s and %s are not runs of the same thing: %s", files[0], p, why)
		}
		for _, r := range d.Workloads {
			if !r.Correct {
				return nil, fmt.Errorf("%s: workload %s was not correct", p, r.Workload)
			}
			if prev, ok := s.sizes[r.Workload]; ok && !reflect.DeepEqual(prev, r.Sizes) {
				return nil, fmt.Errorf("%s: workload %s has other sizes than the first record", p, r.Workload)
			}
			s.sizes[r.Workload] = r.Sizes
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
			}
			s.attempted[r.Workload] += r.Attempted
			s.failed[r.Workload] += r.Failed
		}
	}
	return s, nil
}

// incomparable says why two documents must not be compared, or "".
func incomparable(a, b *document) string {
	switch {
	case a.Schema != b.Schema:
		return fmt.Sprintf("schema %d vs %d", a.Schema, b.Schema)
	case a.Host.NumCPU != b.Host.NumCPU:
		return fmt.Sprintf("num_cpu %d vs %d", a.Host.NumCPU, b.Host.NumCPU)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("seconds %g vs %g", a.Seconds, b.Seconds)
	case a.Trace != b.Trace:
		return fmt.Sprintf("trace %d vs %d", a.Trace, b.Trace)
	}
	return ""
}

func (s *side) failedFraction(workload string) float64 {
	if s.attempted[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempted[workload])
}

// compareSides prints one row per workload and metric and returns how
// many regressed.
func compareSides(out io.Writer, defs []metricDef, old, new *side) (regressions int, err error) {
	if why := incomparable(old.doc, new.doc); why != "" {
		return 0, fmt.Errorf("records are not comparable: %s", why)
	}
	fmt.Fprintf(out, "%-14s %-20s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "new/old", "verdict")
	for _, w := range workloads {
		o, haveOld := old.values[w.name]
		n, haveNew := new.values[w.name]
		if haveOld != haveNew {
			return 0, fmt.Errorf("workload %s is in one record only", w.name)
		}
		if !haveOld {
			continue
		}
		if !reflect.DeepEqual(old.sizes[w.name], new.sizes[w.name]) {
			return 0, fmt.Errorf("workload %s was run at other sizes: %v vs %v", w.name, old.sizes[w.name], new.sizes[w.name])
		}
		for _, d := range defs {
			ov, nv := o[d.Name], n[d.Name]
			if len(ov) == 0 || len(nv) == 0 {
				return 0, fmt.Errorf("workload %s: metric %s is missing from a record", w.name, d.Name)
			}
			om, nm := median(ov), median(nv)
			ratio, v := judge(d, om, nm)
			if v == regressed {
				regressions++
			}
			fmt.Fprintf(out, "%-14s %-20s %14.4f %14.4f %9.3f  %s (bound %g%%, %s is better; base %.4g %s)\n",
				w.name, d.Name, om, nm, ratio, v, 100*d.Bound, d.Better, om, d.Unit)
		}
		of, nf := old.failedFraction(w.name), new.failedFraction(w.name)
		v := unchanged
		if nf > of {
			v = regressed
			regressions++
		} else if nf < of {
			v = improved
		}
		fmt.Fprintf(out, "%-14s %-20s %14.6f %14.6f %9s  %s (any rise regresses)\n", w.name, "failed_fraction", of, nf, "-", v)
	}
	return regressions, nil
}

func compareFiles(out io.Writer, bench, oldPaths, newPaths string) (regressions int, err error) {
	defs, err := loadBounds(bench)
	if err != nil {
		return 0, err
	}
	old, err := loadSide(oldPaths)
	if err != nil {
		return 0, err
	}
	nw, err := loadSide(newPaths)
	if err != nil {
		return 0, err
	}
	return compareSides(out, defs, old, nw)
}

// compareMain is the compare subcommand: exit 0 when nothing regressed,
// 1 when something did, 2 when the records could not be compared.
func compareMain(args []string, out io.Writer) int {
	bench := "BENCHMARK.json"
	if len(args) == 4 && args[0] == "-benchmark" {
		bench, args = args[1], args[2:]
	}
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] OLD.json[,OLD2.json…] NEW.json[,NEW2.json…]")
		return 2
	}
	regressions, err := compareFiles(out, bench, args[0], args[1])
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	case regressions > 0:
		fmt.Fprintf(out, "%d regressed\n", regressions)
		return 1
	}
	fmt.Fprintln(out, "no regression")
	return 0
}
