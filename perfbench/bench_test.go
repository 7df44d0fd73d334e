package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/controller"
	"medsen/internal/csvio"
	"medsen/internal/phone"
)

// smallSource is a capture source cheap enough for unit tests: two 4 s
// bases cut into 1 s windows.
func smallSource(t *testing.T, seed uint64) *captureSource {
	t.Helper()
	src, err := newCaptureSource(seed, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestSameSeedSameInputs(t *testing.T) {
	digests := func(seed uint64) [][32]byte {
		caps, err := smallSource(t, seed).makeRange(0, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][32]byte, len(caps))
		for i, c := range caps {
			out[i] = sha256.Sum256(c.payload)
		}
		return out
	}
	a, b, other := digests(7), digests(7), digests(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different payloads")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds gave identical payloads")
	}
	seen := make(map[[32]byte]bool)
	for _, d := range a {
		if seen[d] {
			t.Fatal("a capture's bytes repeat within a run")
		}
		seen[d] = true
	}

	if !reflect.DeepEqual(readerPicks(7, 100), readerPicks(7, 100)) {
		t.Fatal("same seed gave different reader schedules")
	}
	if reflect.DeepEqual(readerPicks(7, 100), readerPicks(8, 100)) {
		t.Fatal("different seeds gave identical reader schedules")
	}
	plan := func(seed uint64) [][]spoolEntry {
		p := newSpoolPlanner(seed)
		var out [][]spoolEntry
		for i := 0; i < 20; i++ {
			out = append(out, p.next())
		}
		return out
	}
	if !reflect.DeepEqual(plan(7), plan(7)) {
		t.Fatal("same seed gave different spool plans")
	}
	if deviceInputAt(7, 2) != deviceInputAt(7, 2) || deviceInputAt(7, 2) == deviceInputAt(7, 3) {
		t.Fatal("device inputs are not a function of (seed, index)")
	}
}

func TestWindowPositionsAreDistinct(t *testing.T) {
	src := smallSource(t, 3)
	seen := make(map[[2]int]bool)
	for i := 0; i < src.capacity(); i++ {
		b, off := src.position(i)
		if seen[[2]int{b, off}] {
			t.Fatalf("window %d repeats position (%d, %d)", i, b, off)
		}
		seen[[2]int{b, off}] = true
	}
}

func TestSpoolPlanRetransmitsOnlyAcknowledgedCaptures(t *testing.T) {
	p := newSpoolPlanner(5)
	retransmits := 0
	for c := 0; c < 50; c++ {
		acked := p.nextFresh
		for _, e := range p.next() {
			if e.retransmit {
				retransmits++
				if c == 0 || e.capture >= acked || e.capture < p.oldestRetransmit(c) {
					t.Fatalf("cycle %d retransmits capture %d, outside the acknowledged window", c, e.capture)
				}
			}
		}
	}
	if retransmits < 40 || retransmits > 120 {
		t.Fatalf("%d retransmits in 800 entries, want about 10%%", retransmits)
	}
}

func TestCapturePayloadMatchesPhoneEncoding(t *testing.T) {
	src := smallSource(t, 11)
	for _, i := range []int{0, 5, 17} {
		b, off := src.position(i)
		acq := window(src.bases[b].acq, off, src.n)
		var want bytes.Buffer
		if err := csvio.EncodeAcquisition(&want, acq); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), windowCSV(acq, src.rows[b], off, src.n)) {
			t.Fatalf("window %d: assembled CSV differs from csvio.EncodeAcquisition", i)
		}
		c, err := src.make(i)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := csvio.DecompressAcquisition(c.payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cloud.Analyze(dec, cloud.DefaultAnalysisConfig())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cloud.Analyze(asDecoded(acq), cloud.DefaultAnalysisConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !sameReport(got, ref) {
			t.Fatalf("window %d: analyzing the decoded payload differs from analyzing the window", i)
		}
	}
}

func TestTailRefusesThinPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tail(xs, 0.95); err == nil {
		t.Fatal("p95 of 100 samples (5 beyond) was accepted")
	}
	v, err := tail(xs, 0.90)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 90 with 10 beyond", v, err)
	}
	if _, err := tail(xs[:99], 0.90); err == nil {
		t.Fatal("p90 of 99 samples (9 beyond) was accepted")
	}
	if q, _, ok := supportedTail(xs, 0.99, 0.95, 0.90); !ok || q != 0.90 {
		t.Fatalf("supportedTail picked %v, want 0.90", q)
	}
}

func TestSelfTimeOnSyntheticSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(40)},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.child", Start: ms(12), End: ms(18)},
		{ID: 6, Name: "other", Start: ms(50), End: ms(60)}, // not a child
	}
	tr := newSpanTree(spans)
	for id, want := range map[int64]time.Duration{1: ms(60), 2: ms(14), 3: ms(20), 4: ms(30), 5: ms(6)} {
		if got := tr.selfTime(id); got != want {
			t.Errorf("self time of span %d = %v, want %v", id, got, want)
		}
	}
	if r := tr.rootOf(spans[4]); r.ID != 1 {
		t.Errorf("root of a.child = %d, want 1", r.ID)
	}
}

func TestRecorderNestsWithinAGoroutine(t *testing.T) {
	rec := newRecorder()
	outer := rec.begin("outer", "cap-1", 0)
	inner := rec.begin("inner", "", -1)
	rec.end(inner)
	rec.end(outer)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != outer || spans[1].Capture != "cap-1" {
		t.Fatalf("inner span %+v does not nest under outer %d", spans[1], outer)
	}
	var nilRec *recorder
	if id := nilRec.begin("x", "", -1); id != 0 {
		t.Fatal("nil recorder recorded a span")
	}
}

// flow drives one small run of every wrapped path — sync submits, a spool
// flush with a retransmit, and a device diagnostic — against a fresh state
// directory, with the wrappers when rec is non-nil.
func flow(t *testing.T, dir string, rec *recorder) {
	t.Helper()
	ctx := context.Background()
	prog, err := openProgram(dir, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer prog.close()
	h := prog.svc.Handler()
	if rec != nil {
		h = &tracedHandler{inner: h, rec: rec}
	}
	srv, err := serve(h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	p := &phase{seed: 1, rec: rec, url: srv.url, res: &result{}}
	caps, err := smallSource(t, 7).makeRange(0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(p, phoneKeys[0], "phone-0")
	defer closeClient(client)
	relay := &phone.Relay{Client: client}
	for i, c := range caps[:2] {
		if _, err := relay.SubmitKeyed(ctx, c.payload, fmt.Sprint("flow-", i)); err != nil {
			t.Fatal(err)
		}
	}
	q := &phone.OfflineQueue{Dir: filepath.Join(dir, "..", filepath.Base(dir)+"-spool")}
	if rec != nil {
		q.FS = newFS(rec, "phone.fs", false)
	}
	for _, c := range []capture{caps[2], caps[3], caps[2]} {
		if _, err := q.Enqueue(c.payload); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := q.Flush(ctx, client); err != nil || n != 3 {
		t.Fatalf("flush: %d, %v", n, err)
	}
	devClient := newClient(p, deviceKey, "device-0")
	defer closeClient(devClient)
	dev, cfg, err := newDiagnostic(deviceInputAt(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg.DurationS = 2
	var an controller.Analyzer = &phone.Relay{Client: devClient}
	if rec != nil {
		an = &tracedAnalyzer{inner: an, rec: rec}
	}
	if _, err := dev.RunDiagnostic(ctx, cfg, an); err != nil {
		t.Fatal(err)
	}
}

// documents reads every stored document of a state directory by name. The
// keystore and audit chain carry wall-clock timestamps and are left out.
func documents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestWrappersArePassThrough(t *testing.T) {
	root := t.TempDir()
	plain, wrapped := filepath.Join(root, "plain"), filepath.Join(root, "wrapped")
	flow(t, plain, nil)
	rec := newRecorder()
	flow(t, wrapped, rec)

	a, b := documents(t, plain), documents(t, wrapped)
	if len(a) == 0 {
		t.Fatal("the flow stored no documents")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("wrapped run stored different documents: %d vs %d files", len(a), len(b))
	}
	names := make(map[string]bool)
	for _, s := range rec.snapshot() {
		parts := strings.Split(s.Name, ".") // every span name has a layer and an operation
		names[parts[0]+"."+parts[1]] = true
	}
	for _, want := range []string{"store.put", "fs.fsync", "cloud.handler", "client.round_trip", "phone.relay", "phone.fs"} {
		if !names[want] {
			t.Errorf("no %s span recorded; have %v", want, names)
		}
	}
}
