package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"medsen/internal/cloud"
)

// phase is one service life under one workload: a fresh copy of the state
// directory, the program set up over it, closed-loop load, then the output
// checks. The traced run is a second phase with the wrappers installed.
type phase struct {
	seed    uint64
	seconds time.Duration
	workers int       // goroutines for input synthesis
	rec     *recorder // nil in the untraced phase
	prog    *program
	url     string
	first   int // first input index, so a second phase never reuses inputs

	res *result
}

// result is what a phase measured and checked.
type result struct {
	captures int // acknowledged and verified captures (diagnostics)
	ops      int // capture-path operations attempted
	failed   int // operations that failed, were refused or returned a wrong result
	wall     time.Duration

	latency []time.Duration // one sample per capture-path operation
	postAcq []time.Duration // per capture: capture ready → result back
	reads   []time.Duration // one clinic list+get
	readOps int
	// loadReadOps is readOps at the end of the load, before the checks'
	// own reads.
	loadReadOps int

	payloadBytes int64    // zipped capture bytes the phones sent
	putBytes     [3]int64 // envelope bytes the traced store wrote, by kind
	failures     []string

	rt     runtimeDelta
	auditN int // audit records appended during load
	before cloud.Metrics
	after  cloud.Metrics
	setupS []float64
	replay map[string][]time.Duration
	spans  []Span
	// devPre and devPost are the controller's work before the Analyzer is
	// entered and after it returns (device-diagnostic only).
	devPre, devPost []time.Duration
	// sent counts submit bodies seen by the traced transport.
	sent atomic.Int64
	// warm is the warm-up's result: its operations were checked and count
	// toward attempted and failed, never toward a timing or a ratio.
	warm *result
}

func (r *result) attempted() int {
	n := r.ops + r.readOps
	if r.warm != nil {
		n += r.warm.attempted()
	}
	return n
}

func (r *result) failedAll() int {
	n := r.failed
	if r.warm != nil {
		n += r.warm.failedAll()
	}
	return n
}

func (r *result) allFailures() []string {
	if r.warm == nil {
		return r.failures
	}
	return append(append([]string(nil), r.failures...), r.warm.allFailures()...)
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runtimeDelta accumulates runtime/metrics counters over the load windows.
type runtimeDelta struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [4]float64 {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out [4]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func (d *runtimeDelta) add(a, b [4]float64) {
	d.allocs += b[0] - a[0]
	d.allocBytes += b[1] - a[1]
	d.gcCPU += b[2] - a[2]
	d.totalCPU += b[3] - a[3]
}

// generator is one workload's load generator.
type generator interface {
	// prepare synthesizes inputs for n more operations (untimed).
	prepare(p *phase, n int) error
	// load runs the closed loops until the deadline or until the prepared
	// inputs run out, and returns how many operations it started.
	load(ctx context.Context, p *phase, deadline time.Time) int
	// verify runs the output checks after the load (untimed).
	verify(ctx context.Context, p *phase)
	// guessRate is a first estimate of operations per second, for the
	// warm-up.
	guessRate() float64
	// inputs is how many distinct inputs the generator prepared, so a second
	// phase can start after them.
	inputs() int
	// replay replays the first inputs through the stage functions.
	replay() (stageTimes, error)
}

// maxSegment caps one load window, so the inputs synthesized for it stay a
// few hundred megabytes at most.
const maxSegment = 4 * time.Second

// measure runs load for p.seconds of measured wall time, starting from the
// rate estimate rate (operations per second). Inputs are synthesized in
// segments between load windows, sized from the rate seen so far, so
// synthesis never competes with the load for the CPUs. A collection after
// each synthesis starts every window from a clean heap. It returns the last
// rate seen.
func measure(ctx context.Context, p *phase, d generator, rate float64) (float64, error) {
	remaining := p.seconds
	for remaining > p.seconds/20 {
		window := min(remaining, maxSegment)
		n := int(math.Ceil(rate*window.Seconds()*1.15)) + 2
		if err := d.prepare(p, n); err != nil {
			return rate, err
		}
		runtime.GC()
		r0 := readRuntime()
		audit0 := p.prog.audit.Len()
		start := time.Now()
		ops := d.load(ctx, p, start.Add(remaining))
		el := time.Since(start)
		p.res.rt.add(r0, readRuntime())
		p.res.auditN += p.prog.audit.Len() - audit0
		p.res.wall += el
		remaining -= el
		if ops > 0 && el > 0 {
			rate = float64(ops) / el.Seconds()
		}
		if ctx.Err() != nil {
			return rate, ctx.Err()
		}
	}
	return rate, nil
}

// newClient builds one simulated phone's (or reader's) cloud client on its
// own connection; in the traced phase its transport records round trips.
func newClient(p *phase, who principal, id string) *cloud.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	if p.rec != nil {
		rt = &tracedTransport{inner: rt, rec: p.rec, sent: &p.res.sent}
	}
	return &cloud.Client{
		BaseURL:    p.url,
		APIKey:     who.secret,
		ClientID:   id,
		HTTPClient: &http.Client{Transport: rt},
	}
}

// closeClient releases the client's idle connection.
func closeClient(c *cloud.Client) {
	rt := c.HTTPClient.Transport
	if t, ok := rt.(*tracedTransport); ok {
		rt = t.inner
	}
	if t, ok := rt.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// clinicRead is one clinic read: the most recent page of the listing, then
// one report — id's, or the page's row pick when id is empty. It returns the
// report and the listing total for the next read.
func clinicRead(ctx context.Context, c *cloud.Client, total int, id string, pick int) (cloud.Report, int, error) {
	off := max(0, total-readerPage)
	page, n, err := c.ListAnalysesPage(ctx, cloud.Page{Limit: readerPage, Offset: off})
	if err != nil {
		return cloud.Report{}, total, err
	}
	if id == "" {
		if len(page) == 0 {
			return cloud.Report{}, n, fmt.Errorf("listing at offset %d of %d is empty", off, n)
		}
		id = page[pick%len(page)].ID
	}
	rep, err := c.GetReport(ctx, id)
	return rep, n, err
}

// minAuditReads is the fewest clinic reads a loss audit makes: with few
// acknowledged ids (a device run has a few dozen) it fetches each several
// times, so read_p50_ms rests on enough samples.
const minAuditReads = 200

// lossAudit fetches every acknowledged analysis through the clinic key and
// compares it with the acknowledged report, timing each as one clinic read.
func lossAudit(ctx context.Context, p *phase, acked map[string]cloud.Report) {
	c := newClient(p, clinicKey, "clinic-audit")
	defer closeClient(c)
	runtime.GC() // the load's garbage is not the reads' to collect
	ids := sortedKeys(acked)
	if len(ids) == 0 {
		return
	}
	total := p.prog.svc.Snapshot().StoredAnalyses
	for i := 0; i < max(len(ids), minAuditReads); i++ {
		id := ids[i%len(ids)]
		sp := p.rec.begin("op.read", id, 0)
		t0 := time.Now()
		got, n, err := clinicRead(ctx, c, total, id, 0)
		total = n
		p.res.reads = append(p.res.reads, time.Since(t0))
		p.rec.end(sp)
		p.res.readOps++
		if err != nil {
			p.res.fail("capture loss: acknowledged %s not retrievable: %v", id, err)
			continue
		}
		if !sameReport(got, acked[id]) {
			p.res.fail("capture %s: stored report differs from the acknowledged one", id)
		}
	}
}
