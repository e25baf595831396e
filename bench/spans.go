package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's span recorder. The program under test is not touched:
// every span is opened and closed in this package, around a call into a
// layer or inside a decorator of a seam the layer already exposes. A
// span carries its name, start, end, the span that caused it and the id
// of the request (or close pass) it belongs to; across an HTTP hop the
// last two travel in the X-Bench-Span header.

type spanName uint8

const (
	spRequest   spanName = iota // root: one generator operation
	spClosePass                 // root: one epoch-close pass
	spEncode
	spClientDo
	spRoundtrip
	spHarden
	spHandler
	spForward
	spOwnerHandler
	spDrainPending
	spCloseDrained
	spMergeClose
	spAppendScores
	spFsync
	spDrainRoundtrip
	spInstallRoundtrip
	spIngestCall
	spAcceptToFold
	spSubmitBatch
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRequest:          "generator.request",
	spClosePass:        "trust.close_pass",
	spEncode:           "generator.encode",
	spClientDo:         "http.client_do",
	spRoundtrip:        "http.roundtrip",
	spHarden:           "trust.harden",
	spHandler:          "trust.handler",
	spForward:          "replica.forward_roundtrip",
	spOwnerHandler:     "replica.owner_handler",
	spDrainPending:     "trust.drain_pending",
	spCloseDrained:     "trust.close_drained",
	spMergeClose:       "replica.merge_close",
	spAppendScores:     "store.append_scores",
	spFsync:            "store.fsync",
	spDrainRoundtrip:   "replica.drain_roundtrip",
	spInstallRoundtrip: "replica.install_roundtrip",
	spIngestCall:       "stream.ingest_call",
	spAcceptToFold:     "stream.accept_to_fold",
	spSubmitBatch:      "trust.submit_batch",
}

// span is one recorded interval, times in ns since the recorder's t0.
// Parent is 0 for a root; ids start at 1.
type span struct {
	ID     int32
	Parent int32
	Name   spanName
	Req    uint32
	Start  int64
	End    int64
}

const (
	spanShards    = 16
	spanChunk     = 1 << 15
	spanHeader    = "X-Bench-Span"
	maxSpansSaved = 200_000
)

type spanShard struct {
	mu     sync.Mutex
	chunks [][]span
	_      [40]byte
}

// spanRef names a span as a parent: the request it belongs to and its id.
type spanRef struct {
	req uint32
	id  int32
}

// recorder keeps spans in memory, in fixed-size chunks allocated ahead of
// use so recording never copies, and writes them out when the run ends.
type recorder struct {
	t0     time.Time
	nextID atomic.Int32
	nextRq atomic.Uint32
	shards [spanShards]spanShard

	// byGoroutine links a span to work its layer starts on the same
	// goroutine with no context to carry it: replica.Node builds its
	// forward request from scratch, so the peer transport finds the entry
	// handler's span by goroutine id.
	byGoroutine sync.Map // uint64 → spanRef

	// closeMu guards closeStack, the chain of open spans of the close
	// pass. A pass is strictly sequential even where it crosses
	// goroutines (coordinator → peer handler → peer's store), so one
	// stack links it.
	closeMu    sync.Mutex
	closeStack []spanRef
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	for i := range r.shards {
		r.shards[i].chunks = [][]span{make([]span, 0, spanChunk)}
	}
	return r
}

func (r *recorder) now() int64           { return int64(time.Since(r.t0)) }
func (r *recorder) newID() int32         { return r.nextID.Add(1) }
func (r *recorder) newReq() uint32       { return r.nextRq.Add(1) }
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s span) {
	sh := &r.shards[uint32(s.ID)%spanShards]
	sh.mu.Lock()
	last := len(sh.chunks) - 1
	if len(sh.chunks[last]) == cap(sh.chunks[last]) {
		sh.chunks = append(sh.chunks, make([]span, 0, spanChunk))
		last++
	}
	sh.chunks[last] = append(sh.chunks[last], s)
	sh.mu.Unlock()
}

// pushClose opens a span on the close-pass chain and returns its ref and
// parent; ok is false when no traced pass is open (an untraced pass, or
// a store call made during set-up).
func (r *recorder) pushClose(root bool) (self, parent spanRef, ok bool) {
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	if root {
		self = spanRef{req: r.newReq(), id: r.newID()}
		r.closeStack = append(r.closeStack[:0], self)
		return self, spanRef{}, true
	}
	if len(r.closeStack) == 0 {
		return spanRef{}, spanRef{}, false
	}
	parent = r.closeStack[len(r.closeStack)-1]
	self = spanRef{req: parent.req, id: r.newID()}
	r.closeStack = append(r.closeStack, self)
	return self, parent, true
}

func (r *recorder) popClose() {
	r.closeMu.Lock()
	if n := len(r.closeStack); n > 0 {
		r.closeStack = r.closeStack[:n-1]
	}
	r.closeMu.Unlock()
}

// closeSpan times fn as a child of the open close-pass chain. With no
// recorder or no traced pass open it just runs fn.
func (r *recorder) closeSpan(name spanName, fn func()) {
	if r == nil {
		fn()
		return
	}
	self, parent, ok := r.pushClose(false)
	if !ok {
		fn()
		return
	}
	start := r.now()
	fn()
	r.add(span{ID: self.id, Parent: parent.id, Name: name, Req: self.req, Start: start, End: r.now()})
	r.popClose()
}

func (r *recorder) all() []span {
	var out []span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, c := range sh.chunks {
			out = append(out, c...)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func formatSpanHeader(ref spanRef) string {
	return strconv.FormatUint(uint64(ref.req), 10) + "." + strconv.FormatInt(int64(ref.id), 10)
}

func parseSpanHeader(s string) (spanRef, bool) {
	i := strings.IndexByte(s, '.')
	if i <= 0 {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(s[:i], 10, 32)
	id, err2 := strconv.ParseInt(s[i+1:], 10, 32)
	if err1 != nil || err2 != nil {
		return spanRef{}, false
	}
	return spanRef{req: uint32(req), id: int32(id)}, true
}

// goid returns the running goroutine's id, parsed from the first line of
// its stack ("goroutine 123 [running]:"). About a microsecond; used only
// in the traced run and only where a layer gives no other handle.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < n && buf[i] >= '0' && buf[i] <= '9'; i++ {
		id = id*10 + uint64(buf[i]-'0')
	}
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (their union, clipped to the
// parent). The result is indexed like spans.
func selfTimes(spans []span) []int64 {
	index := make(map[int32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int32][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			if _, ok := index[s.Parent]; ok {
				children[s.Parent] = append(children[s.Parent], i)
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := spans[k].Start, spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// spanAgg is what the per-layer metrics need of one span name.
type spanAgg struct {
	n       int
	durSum  int64
	selfSum int64
	durs    []float64 // ns
	selfs   []float64 // ns
}

func (a *spanAgg) meanDur() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.durSum) / float64(a.n)
}

func (a *spanAgg) meanSelf() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.selfSum) / float64(a.n)
}

// spanSummary aggregates a finished run's spans by name and computes the
// coverage of request time: the self time of every span below a request
// root, over the roots' total duration. What is left is time inside a
// request that no layer's span accounts for.
type spanSummary struct {
	byName   [numSpanNames]*spanAgg
	total    int
	coverage float64
}

func summarize(spans []span) *spanSummary {
	sum := &spanSummary{total: len(spans)}
	self := selfTimes(spans)
	reqRoot := make(map[uint32]bool)
	var rootDur, coveredSelf int64
	for _, s := range spans {
		if s.Name == spRequest {
			reqRoot[s.Req] = true
			rootDur += s.End - s.Start
		}
	}
	for i, s := range spans {
		a := sum.byName[s.Name]
		if a == nil {
			a = &spanAgg{}
			sum.byName[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.durSum += d
		a.selfSum += self[i]
		a.durs = append(a.durs, float64(d))
		a.selfs = append(a.selfs, float64(self[i]))
		if s.Name != spRequest && reqRoot[s.Req] {
			coveredSelf += self[i]
		}
	}
	if rootDur > 0 {
		sum.coverage = float64(coveredSelf) / float64(rootDur)
	}
	return sum
}

func (s *spanSummary) get(n spanName) *spanAgg {
	if a := s.byName[n]; a != nil {
		return a
	}
	return &spanAgg{}
}

type savedSpan struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    uint32 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans saves the run's spans as JSON. A 20-s ingest run records
// several hundred thousand; the file keeps the first maxSpansSaved (whole
// requests from the start of the window) and says how many it dropped.
func writeSpans(path string, spans []span) error {
	keep := spans
	if len(keep) > maxSpansSaved {
		keep = keep[:maxSpansSaved]
	}
	out := struct {
		Recorded int         `json:"recorded"`
		Saved    int         `json:"saved"`
		Spans    []savedSpan `json:"spans"`
	}{Recorded: len(spans), Saved: len(keep), Spans: make([]savedSpan, len(keep))}
	for i, s := range keep {
		out.Spans[i] = savedSpan{s.ID, s.Parent, spanNames[s.Name], s.Req, s.Start, s.End}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
