package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestDoc(t *testing.T, dir, name string, edit func(*document)) string {
	t.Helper()
	d := &document{Schema: schemaVersion, Host: hostInfo{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go-test"}, Seed: 1, Seconds: 20}
	for _, w := range workloads {
		r := newRecord(w.name)
		r.Correct, r.Attempted, r.Accepted = true, 1000, 1000
		r.Sizes["nodes"] = 256
		for _, def := range endToEnd {
			r.Metrics.set(def.Name, 100, def.Unit)
		}
		d.Workloads = append(d.Workloads, r)
	}
	if edit != nil {
		edit(d)
	}
	path := filepath.Join(dir, name)
	if err := writeDocument(path, d); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "accepted_per_s", Unit: "items/s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		d        metricDef
		old, new float64
		want     verdict
	}{
		{lower, 100, 109, unchanged},
		{lower, 100, 111, regressed},
		{lower, 100, 89, improved},
		{higher, 100, 91, unchanged},
		{higher, 100, 89, regressed},
		{higher, 100, 111, improved},
		{setup, 0.2, 0.4, unchanged}, // doubled, but inside the absolute slack
		{setup, 2.0, 2.6, regressed},
		{lower, 0, 0, unchanged},
	} {
		if _, got := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %g → %g: %s, want %s", c.d.Name, c.old, c.new, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	raw, _ := json.Marshal(map[string]interface{}{"end_to_end": endToEnd})
	if err := os.WriteFile(bench, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(old, new string) (int, string) {
		var out bytes.Buffer
		code := compareMain([]string{"-benchmark", bench, old, new}, &out)
		return code, out.String()
	}
	base := writeTestDoc(t, dir, "base.json", nil)

	if code, out := run(base, base); code != 0 || !strings.Contains(out, "no regression") {
		t.Errorf("a record against itself: exit %d\n%s", code, out)
	} else if rows := strings.Count(out, "\n") - 2; rows != len(workloads)*(len(endToEnd)+1) {
		t.Errorf("%d rows, want one per workload and metric plus failed_fraction (%d)", rows, len(workloads)*(len(endToEnd)+1))
	}

	slower := writeTestDoc(t, dir, "slower.json", func(d *document) {
		d.Workloads[0].Metrics.set("accepted_per_s", 70, "items/s")
		d.Workloads[1].Metrics.set("ack_p50_ms", 50, "ms")
	})
	code, out := run(base, slower)
	if code != 1 || !strings.Contains(out, "1 regressed") {
		t.Errorf("a 30%% throughput loss: exit %d\n%s", code, out)
	}
	for _, want := range []string{"ingest_http    accepted_per_s", "regressed", "improved", "base 100"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	failing := writeTestDoc(t, dir, "failing.json", func(d *document) { d.Workloads[2].Failed = 1 })
	if code, out := run(base, failing); code != 1 || !strings.Contains(out, "failed_fraction") {
		t.Errorf("a rise in failed_fraction: exit %d\n%s", code, out)
	}

	// Medians over several records per side: one slow run does not regress.
	if code, out := run(base, strings.Join([]string{base, slower, base}, ",")); code != 0 {
		t.Errorf("median of three with one slow run: exit %d\n%s", code, out)
	}

	for name, edit := range map[string]func(*document){
		"num_cpu": func(d *document) { d.Host.NumCPU = 8 },
		"seed":    func(d *document) { d.Seed = 2 },
		"schema":  func(d *document) { d.Schema++ },
		"sizes":   func(d *document) { d.Workloads[0].Sizes["nodes"] = 512 },
		"seconds": func(d *document) { d.Seconds = 5 },
	} {
		other := writeTestDoc(t, dir, name+".json", edit)
		if code, _ := run(base, other); code != 2 {
			t.Errorf("records that differ in %s were compared (exit %d)", name, code)
		}
	}
}
