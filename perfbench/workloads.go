package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medsen"
	"medsen/internal/cloud"
	"medsen/internal/controller"
	"medsen/internal/lockin"
	"medsen/internal/phone"
)

// sameReport compares two reports bit for bit through their wire encoding
// (every float is encoded in its shortest exact form).
func sameReport(a, b cloud.Report) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---- spool-flush ----------------------------------------------------------

// spoolFlush: one phone spooling 16 short captures with
// OfflineQueue.Enqueue and shipping them with one Flush (one :batch round
// trip), beside one clinic reader listing and fetching recent reports.
type spoolFlush struct {
	src     *captureSource
	planner *spoolPlanner
	dir     string    // the phone's spool directory
	caps    []capture // distinct captures, by planner index
	cycles  [][]spoolEntry
	next    int // next cycle to run
	picks   []int
	nextRd  int
	total   int // listing total the reader last saw
	freed   int // captures below this index have dropped their payloads

	fresh, retransmits, flushed int
}

const (
	spoolCaptureS  = 2
	spoolBaseS     = 4
	spoolBaseCount = 16
)

func newSpoolFlush(seed uint64, dir string) (*spoolFlush, error) {
	src, err := newCaptureSource(seed, spoolBaseCount, spoolBaseS, spoolCaptureS)
	if err != nil {
		return nil, err
	}
	return &spoolFlush{src: src, planner: newSpoolPlanner(seed), dir: dir}, nil
}

func (w *spoolFlush) guessRate() float64 { return 8 }
func (w *spoolFlush) inputs() int        { return len(w.caps) }

// prepare plans n more cycles, synthesizes their fresh captures, and sizes
// the reader's schedule generously (reads are cheap and many).
func (w *spoolFlush) prepare(p *phase, n int) error {
	for i := 0; i < n; i++ {
		w.cycles = append(w.cycles, w.planner.next())
	}
	from := len(w.caps)
	more, err := w.src.makeRange(p.first+from, p.first+w.planner.nextFresh, p.workers)
	if err != nil {
		return err
	}
	w.caps = append(w.caps, more...)
	w.picks = readerPicks(mix(p.seed, uint64(p.first)), len(w.cycles)*400)
	return nil
}

func (w *spoolFlush) load(ctx context.Context, p *phase, deadline time.Time) int {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var mu sync.Mutex // guards p.res between the two loops
	if w.total == 0 {
		w.total = p.prog.svc.Snapshot().StoredAnalyses
	}

	wg.Add(1)
	go func() { // the clinic reader
		defer wg.Done()
		c := newClient(p, clinicKey, "clinic")
		defer closeClient(c)
		for !stop.Load() && ctx.Err() == nil && w.nextRd < len(w.picks) {
			sp := p.rec.begin("op.read", "", 0)
			t0 := time.Now()
			_, n, err := clinicRead(ctx, c, w.total, "", w.picks[w.nextRd])
			lat := time.Since(t0)
			p.rec.end(sp)
			w.nextRd++
			w.total = n
			mu.Lock()
			p.res.readOps++
			if err != nil {
				p.res.fail("clinic read: %v", err)
			} else {
				p.res.reads = append(p.res.reads, lat)
			}
			mu.Unlock()
		}
	}()

	client := newClient(p, phoneKeys[0], "phone-0")
	defer closeClient(client)
	q := &phone.OfflineQueue{Dir: w.dir}
	if p.rec != nil {
		q.FS = newFS(p.rec, "phone.fs", false)
	}
	started := 0
	for time.Now().Before(deadline) && ctx.Err() == nil && w.next < len(w.cycles) {
		cycle := w.cycles[w.next]
		w.next++
		started++
		sp := p.rec.begin("op.cycle", fmt.Sprint("cycle", w.next), 0)
		t0 := time.Now()
		enq := make([]time.Time, len(cycle))
		var err error
		var sent int64
		for j, e := range cycle {
			enq[j] = time.Now()
			payload := w.caps[e.capture].payload
			sent += int64(len(payload))
			esp := p.rec.begin("phone.enqueue", "", -1)
			_, err = q.Enqueue(payload)
			p.rec.end(esp)
			if err != nil {
				break
			}
		}
		n := 0
		if err == nil {
			fsp := p.rec.begin("phone.flush", "", -1)
			n, err = q.Flush(ctx, client)
			p.rec.end(fsp)
		}
		end := time.Now()
		p.rec.end(sp)
		// No later cycle re-spools a capture below this; drop the payloads
		// (the replay keeps its first few).
		for ; w.freed < w.planner.oldestRetransmit(w.next); w.freed++ {
			if w.freed >= replaySpool {
				w.caps[w.freed].payload = nil
			}
		}
		mu.Lock()
		p.res.ops++
		switch {
		case err != nil:
			p.res.fail("cycle %d: %v", w.next, err)
		case n != len(cycle):
			p.res.fail("cycle %d: flushed %d of %d entries", w.next, n, len(cycle))
		default:
			p.res.latency = append(p.res.latency, end.Sub(t0))
			for _, t := range enq {
				p.res.postAcq = append(p.res.postAcq, end.Sub(t))
			}
			p.res.payloadBytes += sent
			w.flushed += n
			for _, e := range cycle {
				if e.retransmit {
					w.retransmits++
				} else {
					w.fresh++
				}
			}
		}
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	return started
}

// verify checks exactly one stored analysis per distinct spooled capture and
// that every retransmit deduplicated, from the service's own counters.
func (w *spoolFlush) verify(_ context.Context, p *phase) {
	a, b := p.res.after, p.res.before
	if got := a.Uploads - b.Uploads; got != int64(w.fresh) {
		p.res.fail("%d analyses stored for %d distinct spooled captures", got, w.fresh)
	}
	if got := a.StoredAnalyses - b.StoredAnalyses; got != w.fresh {
		p.res.fail("stored analyses grew by %d for %d distinct captures", got, w.fresh)
	}
	if got := a.DedupHits - b.DedupHits; got != int64(w.retransmits) {
		p.res.fail("%d dedup hits for %d retransmits", got, w.retransmits)
	}
	if got := a.BatchItemErrors - b.BatchItemErrors; got != 0 {
		p.res.fail("%d batch items failed", got)
	}
	pending, err := (&phone.OfflineQueue{Dir: w.dir}).Pending()
	if err != nil || len(pending) != 0 {
		p.res.fail("spool not empty after the run: %d entries (%v)", len(pending), err)
	}
	if p.res.failed == 0 {
		p.res.captures = w.flushed
	}
}

// ---- device-diagnostic ----------------------------------------------------

// deviceDiagnostic: one device running the paper's flow end to end — key
// schedule, encrypted acquisition of blood mixed with the patient's
// cyto-coded password, relay upload, cloud analysis, decrypt, diagnose —
// with a fresh seeded device per diagnostic.
type deviceDiagnostic struct {
	ins     []deviceInput
	next    int
	results []controller.DiagnosticResult
	reports []cloud.Report // what the relay returned, per result
}

const deviceCaptureS = 30

func (w *deviceDiagnostic) guessRate() float64 { return 3 }
func (w *deviceDiagnostic) inputs() int        { return len(w.ins) }

// prepare is free: a diagnostic's inputs are a seed and a concentration.
func (w *deviceDiagnostic) prepare(p *phase, n int) error {
	for i := 0; i < n; i++ {
		w.ins = append(w.ins, deviceInputAt(p.seed, p.first+len(w.ins)))
	}
	return nil
}

// newDiagnostic builds the fresh device and its password-mixed sample.
func newDiagnostic(in deviceInput) (*medsen.Device, medsen.RunConfig, error) {
	dev, err := medsen.NewDevice(medsen.WithSeed(in.seed))
	if err != nil {
		return nil, medsen.RunConfig{}, err
	}
	id, err := dev.NewIdentifier()
	if err != nil {
		return nil, medsen.RunConfig{}, err
	}
	mixed, err := dev.MixPassword(id, medsen.NewBloodSample(10, in.cellsPerUl))
	if err != nil {
		return nil, medsen.RunConfig{}, err
	}
	return dev, medsen.RunConfig{Sample: mixed, DurationS: deviceCaptureS, Identifier: id}, nil
}

func (w *deviceDiagnostic) load(ctx context.Context, p *phase, deadline time.Time) int {
	client := newClient(p, deviceKey, "device-0")
	defer closeClient(client)
	relay := &phone.Relay{Client: client, Uplink: phone.Default4G()}
	started := 0
	for time.Now().Before(deadline) && ctx.Err() == nil && w.next < len(w.ins) {
		in := w.ins[w.next]
		w.next++
		started++
		p.res.ops++
		dev, cfg, err := newDiagnostic(in)
		if err != nil {
			p.res.fail("diagnostic %d: device: %v", w.next, err)
			continue
		}
		an := &tracedAnalyzer{inner: relay, rec: p.rec}
		sp := p.rec.begin("op.diagnostic", fmt.Sprint("d", w.next), 0)
		t0 := time.Now()
		res, err := dev.RunDiagnostic(ctx, cfg, an)
		end := time.Now()
		p.rec.end(sp)
		if err != nil {
			p.res.fail("diagnostic %d: %v", w.next, err)
			continue
		}
		p.rec.add("controller.pre_analyze", sp, t0, an.enter)
		p.rec.add("controller.post_analyze", sp, an.ret, end)
		p.res.latency = append(p.res.latency, end.Sub(t0))
		p.res.postAcq = append(p.res.postAcq, end.Sub(an.enter))
		p.res.devPre = append(p.res.devPre, an.enter.Sub(t0))
		p.res.devPost = append(p.res.devPost, end.Sub(an.ret))
		w.results = append(w.results, res)
		w.reports = append(w.reports, an.report)
	}
	return started
}

// referenceAnalyzer runs the service's pipeline in-process on the
// acquisition exactly as the service decodes it.
type referenceAnalyzer struct{}

func (referenceAnalyzer) Analyze(_ context.Context, acq lockin.Acquisition) (cloud.Report, error) {
	return cloud.Analyze(asDecoded(acq), cloud.DefaultAnalysisConfig())
}

// verify re-runs every diagnostic's seed with the reference analyzer, on
// p.workers goroutines since the checks are untimed, and compares cell
// count, diagnosis label and the integrity verdict; then it audits the
// diagnostics' stored analyses for loss.
func (w *deviceDiagnostic) verify(ctx context.Context, p *phase) {
	wants := make([]controller.DiagnosticResult, len(w.results))
	errs := make([]error, len(w.results))
	var wg sync.WaitGroup
	for k := 0; k < max(1, p.workers); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(w.results); i += max(1, p.workers) {
				dev, cfg, err := newDiagnostic(w.ins[i])
				if err == nil {
					wants[i], err = dev.RunDiagnostic(ctx, cfg, referenceAnalyzer{})
				}
				errs[i] = err
			}
		}(k)
	}
	wg.Wait()
	for i, got := range w.results {
		want := wants[i]
		switch {
		case errs[i] != nil:
			p.res.fail("reference %d: %v", i, errs[i])
		case got.CellCount != want.CellCount || got.Diagnosis.Label != want.Diagnosis.Label ||
			got.IntegrityChecked != want.IntegrityChecked || got.IntegrityOK != want.IntegrityOK:
			p.res.fail("diagnostic %d: got cells=%d %q integrity=%v, reference cells=%d %q integrity=%v",
				i, got.CellCount, got.Diagnosis.Label, got.IntegrityOK,
				want.CellCount, want.Diagnosis.Label, want.IntegrityOK)
		default:
			p.res.captures++
		}
	}
	// The relay hands the controller reports, not ids. The service numbers
	// analyses sequentially after the pre-populated ones, and one device
	// submits in order, so diagnostic i is stored as an-(n+i+1).
	acked := make(map[string]cloud.Report, len(w.reports))
	for i, rep := range w.reports {
		acked[fmt.Sprintf("an-%d", p.res.before.StoredAnalyses+i+1)] = rep
	}
	lossAudit(ctx, p, acked)
}
