package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// wrappers. Start and End are offsets from the recorder's epoch.
type Span struct {
	ID      int64         `json:"id"`
	Parent  int64         `json:"parent"`
	Name    string        `json:"name"`
	Capture string        `json:"capture,omitempty"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced run pays only a nil check at each wrapper.
//
// Parents are found two ways. Within a goroutine the innermost open span is
// the parent (a Store.Put runs on the handler goroutine that called it).
// Across the HTTP hop the client's round-trip span id rides in a request
// header the handler wrapper reads.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	open  map[uint64][]int64 // goroutine id → stack of open span ids
	index map[int64]int      // span id → position in spans
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: make(map[uint64][]int64), index: make(map[int64]int)}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). Only the traced run pays for it.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// begin opens a span on the calling goroutine. parent < 0 means "the
// innermost span open on this goroutine" (0 when there is none).
func (r *recorder) begin(name, capture string, parent int64) int64 {
	if r == nil {
		return 0
	}
	g := goid()
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	stack := r.open[g]
	if parent < 0 {
		parent = 0
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
	}
	if capture == "" && parent > 0 {
		if i, ok := r.index[parent]; ok {
			capture = r.spans[i].Capture
		}
	}
	id := int64(len(r.spans) + 1)
	r.index[id] = len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Capture: capture, Start: now})
	r.open[g] = append(stack, id)
	return id
}

// end closes a span opened by begin on the same goroutine.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	g := goid()
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[r.index[id]].End = now
	stack := r.open[g]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == id {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(r.open, g)
	} else {
		r.open[g] = stack
	}
}

// add records an already finished span, for intervals measured by the
// caller (the controller's work either side of the Analyzer call).
func (r *recorder) add(name string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.index[id] = len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
}

// reset drops every span recorded so far (the set-up's store listings).
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = nil
	r.index = make(map[int64]int)
	r.open = make(map[uint64][]int64)
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTree indexes spans by id and children by parent.
type spanTree struct {
	spans    []Span
	byID     map[int64]int
	children map[int64][]int
}

func newSpanTree(spans []Span) *spanTree {
	t := &spanTree{spans: spans, byID: make(map[int64]int, len(spans)), children: make(map[int64][]int)}
	for i, s := range spans {
		t.byID[s.ID] = i
	}
	for i, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	return t
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover. Overlapping children (parallel work) count once.
func (t *spanTree) selfTime(id int64) time.Duration {
	s := t.spans[t.byID[id]]
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, ci := range t.children[id] {
		c := t.spans[ci]
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB - curA
	}
	return s.Dur() - covered
}

// named returns the spans with the given name.
func (t *spanTree) named(name string) []Span {
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// rootOf walks parent links up to the outermost span.
func (t *spanTree) rootOf(s Span) Span {
	for s.Parent != 0 {
		i, ok := t.byID[s.Parent]
		if !ok {
			break
		}
		s = t.spans[i]
	}
	return s
}
