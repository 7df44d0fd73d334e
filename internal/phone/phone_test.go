package phone

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
)

func testAcquisition(t *testing.T) lockin.Acquisition {
	return testAcquisitionSeeded(t, 81)
}

// testAcquisitionSeeded returns a deterministic acquisition whose bytes vary
// with the seed — submissions now dedup on the payload digest, so a test
// that models N separate captures needs N distinct seeds.
func testAcquisitionSeeded(t *testing.T, seed uint64) lockin.Acquisition {
	t.Helper()
	s := sensor.NewDefault()
	s.Loss = microfluidic.LossModel{Disabled: true}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 30}, drbg.NewFromSeed(seed))
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	return res.Acquisition
}

func newRelay(t *testing.T) *Relay {
	t.Helper()
	svc, err := cloud.NewService(cloud.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return &Relay{
		Client: &cloud.Client{BaseURL: ts.URL},
		Uplink: Default4G(),
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{UplinkBps: 1e6, RTT: 50 * time.Millisecond}
	got := l.TransferTime(2e6)
	want := 50*time.Millisecond + 2*time.Second
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	degenerate := Link{RTT: time.Second}
	if degenerate.TransferTime(100) != time.Second {
		t.Fatal("zero-bandwidth link should cost only RTT")
	}
}

func TestUploadRoundTrip(t *testing.T) {
	relay := newRelay(t)
	var progress []string
	relay.Progress = func(s string) { progress = append(progress, s) }

	acq := testAcquisition(t)
	sub, stats, err := relay.Upload(context.Background(), acq)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if sub.ID == "" || sub.Report.PeakCount == 0 {
		t.Fatalf("submission = %+v", sub)
	}
	var csv bytes.Buffer
	if err := csvio.EncodeAcquisition(&csv, acq); err != nil {
		t.Fatal(err)
	}
	if stats.RawBytes != int64(csv.Len()) {
		t.Fatalf("RawBytes = %d, want the CSV's %d bytes", stats.RawBytes, csv.Len())
	}
	if stats.RawBytes <= stats.CompressedBytes {
		t.Fatalf("compression did not shrink payload: %+v", stats)
	}
	if stats.CompressionRatio <= 1 {
		t.Fatalf("ratio %v", stats.CompressionRatio)
	}
	if stats.SimulatedTransfer <= 0 {
		t.Fatalf("transfer time %v", stats.SimulatedTransfer)
	}
	if len(progress) < 2 {
		t.Fatalf("expected progress feedback, got %v", progress)
	}
}

func TestUploadDoesNotSleepByDefault(t *testing.T) {
	relay := newRelay(t)
	relay.Uplink = Link{UplinkBps: 10, RTT: time.Hour} // absurd link
	acq := testAcquisition(t)
	start := time.Now()
	_, stats, err := relay.Upload(context.Background(), acq)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("upload slept for %v despite Sleep=false", elapsed)
	}
	if stats.SimulatedTransfer < time.Hour {
		t.Fatalf("simulated transfer %v, want >= RTT", stats.SimulatedTransfer)
	}
}

func TestUploadHonorsContextWhenSleeping(t *testing.T) {
	relay := newRelay(t)
	relay.Uplink = Link{UplinkBps: 1, RTT: time.Hour, Sleep: true}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := relay.Upload(ctx, testAcquisition(t))
	if err == nil {
		t.Fatal("expected context cancellation")
	}
}

func TestAnalyzeReturnsReport(t *testing.T) {
	relay := newRelay(t)
	report, err := relay.Analyze(context.Background(), testAcquisition(t))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if report.PeakCount == 0 {
		t.Fatal("empty report")
	}
}

func TestRelayWithoutClient(t *testing.T) {
	r := &Relay{}
	if _, _, err := r.Upload(context.Background(), lockin.Acquisition{}); err == nil {
		t.Fatal("expected error for missing client")
	}
}

func TestUploadAsyncPollsJobToCompletion(t *testing.T) {
	relay := newRelay(t)
	relay.Async = true
	relay.PollInterval = 5 * time.Millisecond
	var progress []string
	relay.Progress = func(s string) { progress = append(progress, s) }

	acq := testAcquisition(t)
	sub, _, err := relay.Upload(context.Background(), acq)
	if err != nil {
		t.Fatalf("async Upload: %v", err)
	}
	if sub.ID == "" || sub.Report.PeakCount == 0 {
		t.Fatalf("async submission = %+v", sub)
	}
	// The async path must produce the same report the sync path does.
	relay.Async = false
	syncSub, _, err := relay.Upload(context.Background(), acq)
	if err != nil {
		t.Fatal(err)
	}
	if syncSub.Report.PeakCount != sub.Report.PeakCount {
		t.Fatalf("async peaks %d != sync peaks %d", sub.Report.PeakCount, syncSub.Report.PeakCount)
	}
	found := false
	for _, p := range progress {
		if strings.Contains(p, "polling") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no polling progress line in %v", progress)
	}
}

// TestRelayMetrics: the phone-side counters track live submissions, failures,
// spooling and backlog flushes, and report the breaker state by name.
func TestRelayMetrics(t *testing.T) {
	client, down := flakyCloud(t)
	relay := &Relay{Client: client, Uplink: Default4G(),
		Breaker: &Breaker{Threshold: 100}} // high threshold: never trips here
	q := &OfflineQueue{Dir: t.TempDir()}
	ctx := context.Background()

	if m := relay.Metrics(); m != (RelayMetrics{BreakerState: "closed"}) {
		t.Fatalf("fresh relay metrics = %+v", m)
	}

	payload, err := csvio.CompressAcquisition(testAcquisitionSeeded(t, 81))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := relay.Submit(ctx, payload); err != nil {
		t.Fatal(err)
	}

	down.Store(true)
	if _, queued, err := relay.SubmitOrSpool(ctx, payload, q); err != nil || !queued {
		t.Fatalf("outage submit: queued=%v err=%v", queued, err)
	}
	down.Store(false)
	// The next live submit flushes the one spooled entry first.
	if _, queued, err := relay.SubmitOrSpool(ctx, payload, q); err != nil || queued {
		t.Fatalf("recovery submit: queued=%v err=%v", queued, err)
	}

	m := relay.Metrics()
	want := RelayMetrics{LiveSubmits: 2, SubmitFailures: 1, Spooled: 1,
		BacklogFlushed: 1, BreakerState: "closed"}
	if m != want {
		t.Fatalf("metrics = %+v, want %+v", m, want)
	}

	// No breaker: the state still reads "closed" rather than empty.
	if s := (&Relay{}).Metrics().BreakerState; s != "closed" {
		t.Fatalf("breakerless state = %q", s)
	}
}

func TestAnalyzeAsyncReturnsReport(t *testing.T) {
	relay := newRelay(t)
	relay.Async = true
	relay.PollInterval = 5 * time.Millisecond
	report, err := relay.Analyze(context.Background(), testAcquisition(t))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if report.PeakCount == 0 {
		t.Fatal("empty report")
	}
}
