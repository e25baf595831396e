package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/trust"
)

// wireReading is a reading as an agent puts it on the wire (the
// collector's submitRequest). The ring has no struct for it — misrouted
// elements travel as the bytes they arrived in — so only the tests build
// one.
type wireReading struct {
	Node     string    `json:"node"`
	SignalID string    `json:"signal_id"`
	PowerDBm float64   `json:"power_dbm"`
	At       time.Time `json:"at"`
	Key      string    `json:"key,omitempty"`
	Trace    string    `json:"trace,omitempty"`
}

// wireRegister is a /api/register body as an agent sends it.
type wireRegister struct {
	ID             string  `json:"id"`
	Operator       string  `json:"operator"`
	Lat            float64 `json:"lat"`
	Lon            float64 `json:"lon"`
	ClaimedOutdoor bool    `json:"claimed_outdoor"`
	Hardware       string  `json:"hardware"`
}

// ownedBy returns an ID of the form prefix-N that the ring places on the
// given member.
func ownedBy(t *testing.T, ring *Ring, member, prefix string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if id := fmt.Sprintf("%s-%d", prefix, i); ring.Owner(id).ID == member {
			return id
		}
	}
	t.Fatalf("no %s-N owned by %s", prefix, member)
	return ""
}

// stub replaces a member's handler with h (behind a mux, the one type
// testReplica's atomic.Value holds).
func (r *testReplica) stub(h http.HandlerFunc) {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	r.handler.Store(mux)
}

func postReadings(t *testing.T, url string, body []byte, header http.Header) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/api/readings", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestForwardOrderFollowsRing: misrouted groups used to sit in a Go map,
// so which owner was tried first — and with it the order of the
// summary's errors, and who already held their share when a later
// forward failed — changed from run to run. Owners are tried in ring
// member order now.
func TestForwardOrderFollowsRing(t *testing.T) {
	reps := newTestRing(t, 3)
	ring := reps[0].node.Ring()
	var batch []wireReading
	var want []string
	for _, member := range []string{"r1", "r2", "r3"} {
		good, ghost := ownedBy(t, ring, member, "node"), ownedBy(t, ring, member, "ghost")
		mustPost(t, reps[0].srv.URL+"/api/register", wireRegister{ID: good}, http.StatusCreated)
		// Interleave owners in the body so arrival order cannot explain
		// the outcome: r3's first.
		batch = append([]wireReading{
			{Node: ghost, SignalID: "tv-521MHz", PowerDBm: -60, At: testEpoch},
			{Node: good, SignalID: "tv-521MHz", PowerDBm: -60, At: testEpoch},
		}, batch...)
		want = append(want, fmt.Sprintf("trust: node %s not registered", ghost))
	}
	for i := 0; i < 50; i++ {
		var resp trust.BatchSummary
		if err := json.Unmarshal(mustPost(t, reps[0].srv.URL+"/api/readings", batch, http.StatusAccepted), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Accepted != 3 || resp.Rejected != 3 || !reflect.DeepEqual(resp.Errors, want) {
			t.Fatalf("repeat %d: summary %+v, want 3 accepted and errors in ring order %q", i, resp, want)
		}
	}
}

// TestForwardedBodyIsWhatTheAgentSent: the forward hop re-encodes
// nothing. A stub owner captures what the entry member POSTs and every
// element must be the agent's bytes — odd spacing, escapes and unknown
// fields included — under the ring credential. A forged forward header
// changes nothing: without the credential the batch is still routed.
func TestForwardedBodyIsWhatTheAgentSent(t *testing.T) {
	reps := newTestRing(t, 3)
	ring := reps[0].node.Ring()
	mine, theirs := ownedBy(t, ring, "r1", "node"), ownedBy(t, ring, "r3", "node")
	for _, id := range []string{mine, theirs} {
		mustPost(t, reps[0].srv.URL+"/api/register", wireRegister{ID: id}, http.StatusCreated)
	}
	var (
		mu       sync.Mutex
		captured [][]byte
		headers  []http.Header
	)
	reps[2].stub(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		captured = append(captured, body)
		headers = append(headers, r.Header.Clone())
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"accepted":%d}`, bytes.Count(body, []byte(`"node"`)))
	})
	elements := []string{
		`{"node":"` + theirs + `","signal_id":"tv-521MHz","power_dbm":-61.250,"at":"2026-08-08T12:00:00Z","key":"k1"}`,
		`{ "power_dbm" : -6.0e1 , "node" : "` + theirs + `", "signal_id":"tv\u002d569MHz", "firmware":{"v":[1,2]} }`,
		`{"signal_id":"lte-751MHz","node":"` + theirs + `","power_dbm":-70,"NOTE":"café"}`,
	}
	own := `{"node":"` + mine + `","signal_id":"tv-521MHz","power_dbm":-60}`
	body := []byte("[\n " + elements[0] + " ,\n" + own + "," + elements[1] + "\t,\r\n" + elements[2] + " ]\n")
	want := "[" + strings.Join(elements, ",") + "]"

	for _, forged := range []bool{false, true} {
		header := http.Header{}
		if forged {
			header.Set(ForwardHeader, "r9")
		}
		code, out := postReadings(t, reps[0].srv.URL, body, header)
		var resp trust.BatchSummary
		if err := json.Unmarshal(out, &resp); code != http.StatusAccepted || err != nil || resp.Accepted != 4 {
			t.Fatalf("forged=%v: %d %s, want 202 with 4 accepted (1 local + 3 forwarded)", forged, code, out)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(captured) != 2 {
		t.Fatalf("owner saw %d forwards, want 2 (a forged forward header must not stop routing)", len(captured))
	}
	for i, got := range captured {
		if string(got) != want {
			t.Errorf("forward %d carried\n%s\nwant the agent's elements as sent\n%s", i, got, want)
		}
		if headers[i].Get(ForwardHeader) != "r1" || headers[i].Get(RingAuthHeader) != testRingSecret {
			t.Errorf("forward %d headers %v: want the entry's ID and the ring credential", i, headers[i])
		}
	}
}

// TestForwardBufferSurvivesEarly503 is a -race test. An owner that sheds
// answers 503 without reading the request body, so Client.Do returns
// while the transport's write loop may still be reading the forward
// buffer. That buffer must therefore never be handed to a later request;
// if it were, the next requests' appends would race with those reads.
func TestForwardBufferSurvivesEarly503(t *testing.T) {
	reps := newTestRing(t, 3)
	ring := reps[0].node.Ring()
	theirs := ownedBy(t, ring, "r3", "node")
	mustPost(t, reps[0].srv.URL+"/api/register", wireRegister{ID: theirs}, http.StatusCreated)
	reps[2].stub(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shedding", http.StatusServiceUnavailable)
	})
	// Big enough that the 503 overtakes the upload.
	batch := make([]wireReading, 8000)
	for i := range batch {
		batch[i] = wireReading{Node: theirs, SignalID: "tv-521MHz", PowerDBm: -60, At: testEpoch, Key: fmt.Sprintf("k%d", i)}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if code, out := postReadings(t, reps[0].srv.URL, body, nil); code != http.StatusServiceUnavailable {
					t.Errorf("entry answered %d %s for a shedding owner, want 503", code, out)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRingReadingsBodyOverCapIs413: the ring's handler shares the
// collector's decoder and with it the cap's new answer — 413, after the
// locally-owned elements that fit were ingested — where io.LimitReader
// used to cut the body and produce "400 unexpected EOF".
func TestRingReadingsBodyOverCapIs413(t *testing.T) {
	reps := newTestRing(t, 3)
	ring := reps[0].node.Ring()
	mine := ownedBy(t, ring, "r1", "node")
	mustPost(t, reps[0].srv.URL+"/api/register", wireRegister{ID: mine}, http.StatusCreated)
	reg := obs.NewRegistry()
	reps[0].col.Instrument(reg)
	var body bytes.Buffer
	fits := 0
	body.WriteByte('[')
	for i := 0; body.Len() <= maxBody; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"node":%q,"signal_id":"tv-%d","power_dbm":-60.5,"at":"2026-08-08T12:00:00Z"}`, mine, i%8)
		if body.Len() <= maxBody {
			fits++
		}
	}
	body.WriteByte(']')
	code, out := postReadings(t, reps[0].srv.URL, body.Bytes(), nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over the cap answered %d %s, want 413", code, out)
	}
	if got := reg.Counter("trust_readings_total", "").Value(); int(got) != fits {
		t.Fatalf("%v readings ingested before the 413, want the %d that end within the cap", got, fits)
	}
}

// TestForwardedGroupCountsOnItsOwner pins what the collector's request
// counter means on a ring: each member counts the requests it serves, so
// the owner of a forwarded group counts that group as one readings
// request, and a request with nothing to forward moves only its entry.
func TestForwardedGroupCountsOnItsOwner(t *testing.T) {
	reps := newTestRing(t, 2)
	ring := reps[0].node.Ring()
	mine, theirs := ownedBy(t, ring, "r2", "node"), ownedBy(t, ring, "r1", "node")
	for _, id := range []string{mine, theirs} {
		mustPost(t, reps[1].srv.URL+"/api/register", wireRegister{ID: id}, http.StatusCreated)
	}
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	for i, r := range reps {
		r.col.Instrument(regs[i])
	}
	requests := func(i int) string {
		return strings.Join(metricLines(t, regs[i], "trust_http_requests_total", "trust_readings_total"), " ")
	}
	mustPost(t, reps[1].srv.URL+"/api/readings", []wireReading{
		{Node: mine, SignalID: "tv-521MHz", PowerDBm: -60, At: testEpoch},
		{Node: theirs, SignalID: "tv-521MHz", PowerDBm: -60, At: testEpoch},
	}, http.StatusAccepted)
	mustPost(t, reps[1].srv.URL+"/api/readings", []wireReading{
		{Node: mine, SignalID: "tv-569MHz", PowerDBm: -60, At: testEpoch},
	}, http.StatusAccepted)
	for i, want := range []string{
		`trust_http_requests_total{endpoint="readings"} 1 trust_readings_total 1`,
		`trust_http_requests_total{endpoint="readings"} 2 trust_readings_total 2`,
	} {
		if got := requests(i); got != want {
			t.Errorf("%s counts %q, want %q", reps[i].node.Self().ID, got, want)
		}
	}
}
