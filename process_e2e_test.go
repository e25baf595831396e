package sensorcal

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sensorcal/internal/replica"
)

// The process tests run the shipped binaries — spectrumd, schedd and
// agentd, built once per test binary — on free loopback ports and talk
// to them over HTTP only, the way an operator or an agent does.

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// bin returns the path of a built command, building all three on first use.
func bin(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "sensorcal-bin-"); buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
			"./cmd/spectrumd", "./cmd/schedd", "./cmd/agentd").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, name)
}

// freeAddrs returns n distinct loopback addresses nothing listens on
// right now.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// proc is one running daemon. Its output goes to a log file that is
// dumped into the test log if the test fails.
type proc struct {
	t    *testing.T
	name string
	addr string
	cmd  *exec.Cmd
	done chan struct{}
	err  error // the exit status, once done is closed
}

// start runs the command name with args (-addr is added when addr is
// set) and env appended to the test's environment.
func start(t *testing.T, name, addr string, env []string, args ...string) *proc {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "" {
		args = append([]string{"-addr", addr}, args...)
	}
	p := &proc{t: t, name: name, addr: addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin(t, strings.Fields(name)[0]), args...)
	p.cmd.Env = append(os.Environ(), env...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		if t.Failed() {
			b, _ := os.ReadFile(logPath)
			t.Logf("--- %s %v log:\n%s", name, args, b)
		}
	})
	return p
}

// stop sends sig and waits for the process to exit.
func (p *proc) stop(sig syscall.Signal) error {
	p.t.Helper()
	p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
		return p.err
	case <-time.After(15 * time.Second):
		p.t.Fatalf("%s did not exit after %v", p.name, sig)
		return nil
	}
}

// waitReady polls /readyz until it answers 200.
func (p *proc) waitReady() {
	p.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if resp, err := http.Get("http://" + p.addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case <-p.done:
			p.t.Fatalf("%s exited before it was ready: %v", p.name, p.err)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("%s never became ready", p.name)
		}
	}
}

// call sends one request to a daemon and returns the response with its
// body read.
func call(t *testing.T, method, url, auth, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if auth != "" {
		req.Header.Set(replica.RingAuthHeader, auth)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// get is a GET that must answer 200; v, when non-nil, receives the JSON
// body.
func get(t *testing.T, url string, v any) []byte {
	t.Helper()
	resp, b := call(t, http.MethodGet, url, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("GET %s: %v in %s", url, err, b)
		}
	}
	return b
}

// post is a POST that must answer 2xx; v, when non-nil, receives the
// JSON body.
func post(t *testing.T, url, body string, v any) {
	t.Helper()
	resp, b := call(t, http.MethodPost, url, "", body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s = %d: %s", url, resp.StatusCode, b)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("POST %s: %v in %s", url, err, b)
		}
	}
}

// metric reads one unlabelled series from a daemon's /metrics.
func metric(t *testing.T, addr, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(get(t, "http://"+addr+"/metrics", nil)))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("%s has no series %s", addr, name)
	return 0
}

// eventually polls cond for up to 15 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

type fleetEntry struct {
	Node         string    `json:"node"`
	Score        float64   `json:"score"`
	RegisteredAt time.Time `json:"registered_at"`
}

type ringView struct {
	Self, Coordinator string
	Members           []json.RawMessage
	Ready             bool
}

type batchSummary struct {
	Accepted, Duplicates, Rejected int
}

// TestProcessTraceAcrossDaemons: one leased measurement is one trace,
// rooted at agentd and retrievable from schedd's and spectrumd's
// /debug/traces.
func TestProcessTraceAcrossDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("three daemons, ~4 s")
	}
	dir, addrs := t.TempDir(), freeAddrs(t, 2)
	spectrumd := start(t, "spectrumd", addrs[0], nil, "-wal", filepath.Join(dir, "wal"))
	schedd := start(t, "schedd", addrs[1], nil, "-nodes", "node-1", "-plan-every", "2s")
	spectrumd.waitReady()
	schedd.waitReady()

	// One leased measurement, then exit; the simulated agent clock races
	// through the scheduled window. The agent's spans come from its
	// export file, which is fresh for this run.
	spans := filepath.Join(dir, "agent-spans.jsonl")
	agentd := start(t, "agentd", "", nil, "-node", "node-1",
		"-scheduler", "http://"+schedd.addr, "-collector", "http://"+spectrumd.addr,
		"-spool", filepath.Join(dir, "spool"), "-drain", "500ms", "-poll", "2s", "-tasks", "1",
		"-admin", "", "-trace-export", spans)
	select {
	case <-agentd.done:
		if agentd.err != nil {
			t.Fatalf("agentd: %v", agentd.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("agentd did not finish its task")
	}

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var traceID string
	for dec := json.NewDecoder(f); traceID == ""; {
		var rec struct {
			Name    string
			TraceID string `json:"trace_id"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("no agent.task span in %s: %v", spans, err)
		}
		if rec.Name == "agent.task" {
			traceID = rec.TraceID
		}
	}
	for _, p := range []*proc{schedd, spectrumd} {
		var got []json.RawMessage
		get(t, "http://"+p.addr+"/debug/traces?trace_id="+traceID, &got)
		if len(got) == 0 {
			t.Errorf("%s holds no span of trace %s", p.name, traceID)
		}
	}
}

// iqTone is one n-sample tone frame in the wire form: base64 of
// little-endian float32 I/Q pairs.
func iqTone(n, cycles int) string {
	buf := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		ph := 2 * math.Pi * float64(cycles*i) / float64(n)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(0.4*math.Cos(ph))))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(0.4*math.Sin(ph))))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// TestProcessStreamSensors: 100 sensors' frames through a live
// spectrumd fold into a non-empty occupancy grid, and the daemon stays
// ready with its stream counters advancing.
func TestProcessStreamSensors(t *testing.T) {
	p := start(t, "spectrumd", freeAddrs(t, 1)[0], nil)
	p.waitReady()
	base := "http://" + p.addr
	// Four bodies of 25 frames, one tone per sensor on a center inside
	// the default -stream-band, each body posted five times.
	var bodies []string
	for b := 0; b < 4; b++ {
		var frames []string
		for s := b * 25; s < b*25+25; s++ {
			frames = append(frames, fmt.Sprintf(`{"sensor":"sensor-%03d","center_hz":%g,"sample_rate":2.4e6,"iq_b64":%q}`,
				s, []float64{500e6, 550e6, 600e6, 650e6}[s%4], iqTone(256, 8+s%16)))
		}
		bodies = append(bodies, `{"frames":[`+strings.Join(frames, ",")+`]}`)
	}
	for round := 0; round < 5; round++ {
		for _, body := range bodies {
			post(t, base+"/api/stream/frames", body, nil)
		}
	}

	eventually(t, "folded frames in /api/occupancy", func() bool {
		var occ struct {
			Slots []struct{ Frames uint64 }
		}
		get(t, base+"/api/occupancy", &occ)
		var frames uint64
		for _, s := range occ.Slots {
			frames += s.Frames
		}
		return frames > 0
	})
	get(t, base+"/readyz", nil)
	if v := metric(t, p.addr, "stream_frames_processed_total"); v <= 0 {
		t.Fatalf("stream_frames_processed_total = %v", v)
	}
}

// TestProcessReplicaRing: a plain spectrumd is a ready ring of one that
// refuses the peer protocol; three members forward, merge-close to a
// byte-identical fleet, shed a dead owner's readings with 503 +
// Retry-After, and a restarted member catches up before it is ready.
func TestProcessReplicaRing(t *testing.T) {
	if testing.Short() {
		t.Skip("four daemons, ~3 s")
	}
	const secret = "process-ring-secret"
	drain := `{"cutoff":"2030-01-01T00:00:00Z"}`

	// A plain daemon with no secret: the peer protocol is closed to every
	// caller, whatever credential it presents.
	addrs := freeAddrs(t, 4)
	plain := start(t, "spectrumd", addrs[3], []string{"SENSORCAL_RING_SECRET="}, "-epoch", "1s")
	plain.waitReady()
	var ring ringView
	get(t, "http://"+plain.addr+"/api/ring", &ring)
	if len(ring.Members) != 1 || ring.Self != ring.Coordinator || !ring.Ready {
		t.Fatalf("plain /api/ring = %+v, want one ready member coordinating itself", ring)
	}
	for _, auth := range []string{"", secret} {
		if resp, _ := call(t, http.MethodPost, "http://"+plain.addr+"/replica/drain", auth, drain); resp.StatusCode != http.StatusForbidden {
			t.Fatalf("ring of one: /replica/drain with credential %q = %d, want 403", auth, resp.StatusCode)
		}
	}
	if err := plain.stop(syscall.SIGTERM); err != nil {
		t.Fatalf("plain spectrumd after SIGTERM: %v, want a clean exit", err)
	}

	ids := []string{"r1", "r2", "r3"}
	var members []replica.Member
	var spec []string
	for i, id := range ids {
		m := replica.Member{ID: id, URL: "http://" + addrs[i]}
		members = append(members, m)
		spec = append(spec, id+"="+m.URL)
	}
	walRoot := t.TempDir()
	env := []string{"SENSORCAL_RING_SECRET=" + secret}
	member := func(i int) *proc {
		return start(t, "spectrumd "+ids[i], addrs[i], env,
			"-replica-id", ids[i], "-ring", strings.Join(spec, ","),
			"-wal", filepath.Join(walRoot, ids[i]), "-epoch", "1s", "-catchup-wait", "10s")
	}
	ps := []*proc{member(0), member(1), member(2)}
	for _, p := range ps {
		p.waitReady()
	}
	for _, p := range ps {
		get(t, "http://"+p.addr+"/api/ring", &ring)
		if ring.Coordinator != "r1" || len(ring.Members) != 3 || !ring.Ready {
			t.Fatalf("%s /api/ring = %+v, want 3 ready members under r1", p.name, ring)
		}
	}
	r1, r2 := "http://"+ps[0].addr, "http://"+ps[1].addr
	if resp, _ := call(t, http.MethodPost, r1+"/replica/drain", "", drain); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("/replica/drain without the credential = %d, want 403", resp.StatusCode)
	}

	// Enroll through r2: the broadcast lands every node on every member.
	for n := 0; n < 10; n++ {
		post(t, r2+"/api/register", fmt.Sprintf(`{"id":"node-%d","operator":"op-%d","hardware":"rtl-sdr-v3"}`, n, n), nil)
	}
	for _, p := range ps {
		var fleet []fleetEntry
		get(t, "http://"+p.addr+"/api/fleet", &fleet)
		if len(fleet) != 10 {
			t.Fatalf("%s holds %d nodes after enrolling 10 through r2", p.name, len(fleet))
		}
	}

	// Every node's reading through r1, which owns only some of them, so
	// the rest are forwarded; node-7 reads hot.
	var readings []string
	for n := 0; n < 10; n++ {
		p := -60
		if n == 7 {
			p = -10
		}
		readings = append(readings, fmt.Sprintf(`{"node":"node-%d","signal_id":"tv-521","power_dbm":%d,"key":"w1-%d"}`, n, p, n))
	}
	var sum batchSummary
	post(t, r1+"/api/readings", "["+strings.Join(readings, ",")+"]", &sum)
	if sum.Accepted != 10 || sum.Rejected != 0 {
		t.Fatalf("readings through r1: %+v, want 10 accepted", sum)
	}
	if v := metric(t, ps[0].addr, "replica_forwarded_readings_total"); v <= 0 {
		t.Fatalf("replica_forwarded_readings_total on r1 = %v", v)
	}

	// After a merge close the fleet is byte-identical on every member and
	// node-7 is penalised.
	var fleetR1 []byte
	eventually(t, "a merge close that penalises node-7 on every member", func() bool {
		fleetR1 = get(t, r1+"/api/fleet", nil)
		var fleet []fleetEntry
		json.Unmarshal(fleetR1, &fleet)
		hot, best := 0.0, 0.0
		for _, e := range fleet {
			if e.Node == "node-7" {
				hot = e.Score
			} else {
				best = math.Max(best, e.Score)
			}
		}
		return hot < best &&
			bytes.Equal(fleetR1, get(t, r2+"/api/fleet", nil)) &&
			bytes.Equal(fleetR1, get(t, "http://"+ps[2].addr+"/api/fleet", nil))
	})

	// Kill r3, a follower; a reading for a node it owns must shed whole
	// with 503 + Retry-After, never be acked unplaced.
	r, err := replica.NewRing(members, replica.DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	owned := ""
	for n := 0; n < 10 && owned == ""; n++ {
		if id := fmt.Sprintf("node-%d", n); r.Owner(id).ID == "r3" {
			owned = id
		}
	}
	if owned == "" {
		t.Fatal("r3 owns none of node-0..9")
	}
	if err := ps[2].stop(syscall.SIGTERM); err != nil {
		t.Fatalf("r3 after SIGTERM: %v, want a clean exit", err)
	}
	dead := fmt.Sprintf(`[{"node":%q,"signal_id":"tv-521","power_dbm":-60,"key":"dead-1"}]`, owned)
	resp, body := call(t, http.MethodPost, r1+"/api/readings", "", dead)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("reading for dead owner r3 = %d (Retry-After %q): %s, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}

	// Restarted on its WAL, r3 catches up from a live peer before it is
	// ready, and then serves the ring's fleet.
	ps[2] = member(2)
	ps[2].waitReady()
	eventually(t, "the restarted r3 to serve r1's fleet", func() bool {
		return bytes.Equal(get(t, r1+"/api/fleet", nil), get(t, "http://"+ps[2].addr+"/api/fleet", nil))
	})
	post(t, r1+"/api/readings", dead, &sum)
	if sum.Accepted+sum.Duplicates != 1 || sum.Rejected != 0 {
		t.Fatalf("resubmission after the restart: %+v, want one accepted or duplicate", sum)
	}
}

// TestProcessKillKeepsClosedScores pins what survives kill -9 today: a
// spectrumd on a WAL, SIGKILLed after an epoch close moved a score,
// restarts on the same directory with the same registrations and closed
// scores.
func TestProcessKillKeepsClosedScores(t *testing.T) {
	walDir := t.TempDir()
	p := start(t, "spectrumd", freeAddrs(t, 1)[0], nil, "-wal", walDir, "-epoch", "1s")
	p.waitReady()
	base := "http://" + p.addr
	for _, id := range []string{"a", "b", "c"} {
		post(t, base+"/api/register", `{"id":"`+id+`"}`, nil)
	}
	appended := metric(t, p.addr, "store_wal_appends_total")
	// One window with an over-consensus fabricator in it.
	at := time.Now().UTC().Format(time.RFC3339Nano)
	var sum batchSummary
	post(t, base+"/api/readings", fmt.Sprintf(`[
		{"node":"a","signal_id":"tv-521MHz","power_dbm":-60,"at":%[1]q},
		{"node":"b","signal_id":"tv-521MHz","power_dbm":-61,"at":%[1]q},
		{"node":"c","signal_id":"tv-521MHz","power_dbm":-30,"at":%[1]q}]`, at), &sum)
	if sum.Accepted != 3 {
		t.Fatalf("readings: %+v, want 3 accepted", sum)
	}
	// The close applies scores in memory, then appends them: wait for the
	// append too, so the kill does not race the fsync.
	var before []fleetEntry
	eventually(t, "a close that penalises c, appended to the WAL", func() bool {
		get(t, base+"/api/fleet", &before)
		return before[2].Score < before[0].Score && metric(t, p.addr, "store_wal_appends_total") > appended
	})

	p.stop(syscall.SIGKILL)
	p = start(t, "spectrumd", p.addr, nil, "-wal", walDir, "-epoch", "1s")
	p.waitReady()
	var after []fleetEntry
	get(t, base+"/api/fleet", &after)
	if len(after) != len(before) {
		t.Fatalf("fleet after kill -9 = %+v, want %+v", after, before)
	}
	for i, b := range before {
		if a := after[i]; a.Node != b.Node || a.Score != b.Score || !a.RegisteredAt.Equal(b.RegisteredAt) {
			t.Fatalf("fleet after kill -9 = %+v, want %+v", after, before)
		}
	}
}
