package loadgen

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/promexp"
)

func hostService(t *testing.T, cfg cloud.ServiceConfig) (*cloud.Service, string) {
	t.Helper()
	svc, err := cloud.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return svc, ts.URL
}

// TestLoadgenSmoke is the acceptance smoke: a small fleet against an
// in-process service must land every capture (zero loss), classify every
// submission, keep the latency quantiles ordered, agree with the server's
// own counters, and render a run report that the strict exposition parser
// accepts line-for-line — same for the service's live /metrics.
func TestLoadgenSmoke(t *testing.T) {
	_, url := hostService(t, cloud.ServiceConfig{})
	res, err := Run(context.Background(), Config{
		BaseURL:           url,
		Devices:           8,
		CapturesPerDevice: 2,
		Seed:              42,
		SharedCapture:     true,
		DedupFraction:     0.25,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Captures != 16 || res.Succeeded != 16 {
		t.Fatalf("captures/succeeded = %d/%d, want 16/16", res.Captures, res.Succeeded)
	}
	if res.CaptureLoss != 0 {
		t.Fatalf("capture loss = %d, want 0", res.CaptureLoss)
	}
	if res.UniqueAnalyses+res.DedupHits != res.Succeeded {
		t.Fatalf("unique %d + dedup %d != succeeded %d", res.UniqueAnalyses, res.DedupHits, res.Succeeded)
	}
	if res.DedupHits == 0 {
		t.Fatal("DedupFraction 0.25 over 16 submissions produced no dedup hits")
	}
	if res.LatencyP50 <= 0 || res.LatencyP50 > res.LatencyP95 ||
		res.LatencyP95 > res.LatencyP99 || res.LatencyP99 > res.LatencyMax {
		t.Fatalf("latency quantiles out of order: %v/%v/%v/%v",
			res.LatencyP50, res.LatencyP95, res.LatencyP99, res.LatencyMax)
	}
	if res.ThroughputPerSec <= 0 {
		t.Fatalf("throughput = %v", res.ThroughputPerSec)
	}
	// The client-observed numbers must agree with the server's ground truth.
	if res.Server == nil {
		t.Fatal("no server counter deltas despite a reachable /metrics")
	}
	if int(res.Server.Uploads) != res.UniqueAnalyses {
		t.Fatalf("server uploads %d != unique analyses %d", res.Server.Uploads, res.UniqueAnalyses)
	}
	if int(res.Server.DedupHits) != res.DedupHits {
		t.Fatalf("server dedup hits %d != client %d", res.Server.DedupHits, res.DedupHits)
	}
	if res.Relay.LiveSubmits != int64(res.Succeeded) || res.Relay.SubmitFailures != 0 {
		t.Fatalf("relay aggregate = %+v", res.Relay)
	}

	// The run report is valid Prometheus exposition, line for line.
	var buf bytes.Buffer
	if err := res.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	fams, err := promexp.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("loadgen exposition does not parse: %v\n%s", err, buf.String())
	}
	if f := fams["medsen_loadgen_capture_loss_total"]; f == nil || f.Samples[0].Value != 0 {
		t.Fatalf("capture-loss family = %+v", f)
	}
	if f := fams["medsen_loadgen_latency_seconds"]; f == nil || len(f.Samples) != 4 {
		t.Fatalf("latency family = %+v", f)
	}

	// And so is the loaded service's own /metrics.
	resp, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sfams, err := promexp.Parse(body)
	if err != nil {
		t.Fatalf("server exposition does not parse: %v", err)
	}
	if f := sfams["medsen_uploads_total"]; f == nil || int(f.Samples[0].Value) != res.UniqueAnalyses {
		t.Fatalf("server medsen_uploads_total = %+v, want %d", f, res.UniqueAnalyses)
	}
}

// TestLoadgenBatchMode coalesces each device's captures into batch
// submissions and checks the item-level accounting is identical to the
// single-submit mode: every capture resolves, retransmitted keys dedup, and
// the round-trip count shows the amortization (ceil(captures/batch) requests
// per device).
func TestLoadgenBatchMode(t *testing.T) {
	_, url := hostService(t, cloud.ServiceConfig{})
	res, err := Run(context.Background(), Config{
		BaseURL:           url,
		Devices:           4,
		CapturesPerDevice: 5,
		Seed:              42,
		SharedCapture:     true,
		DedupFraction:     0.25,
		Batch:             3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Captures != 20 || res.Succeeded != 20 {
		t.Fatalf("captures/succeeded = %d/%d, want 20/20", res.Captures, res.Succeeded)
	}
	if res.CaptureLoss != 0 {
		t.Fatalf("capture loss = %d, want 0", res.CaptureLoss)
	}
	// 5 captures in batches of 3 is 2 round trips per device.
	if res.BatchRequests != 8 {
		t.Fatalf("batch requests = %d, want 8", res.BatchRequests)
	}
	if res.DedupHits == 0 {
		t.Fatal("DedupFraction 0.25 over 20 submissions produced no dedup hits")
	}
	if res.UniqueAnalyses+res.DedupHits != res.Succeeded {
		t.Fatalf("unique %d + dedup %d != succeeded %d", res.UniqueAnalyses, res.DedupHits, res.Succeeded)
	}
	// Server ground truth: every unique analysis was stored exactly once and
	// every retransmit was absorbed by the dedup index.
	if res.Server == nil {
		t.Fatal("no server counter deltas despite a reachable /metrics")
	}
	if int(res.Server.Uploads) != res.UniqueAnalyses {
		t.Fatalf("server uploads %d != unique analyses %d", res.Server.Uploads, res.UniqueAnalyses)
	}
	if int(res.Server.DedupHits) != res.DedupHits {
		t.Fatalf("server dedup hits %d != client %d", res.Server.DedupHits, res.DedupHits)
	}
	if got := int(res.Server.BatchRequests); got != res.BatchRequests {
		t.Fatalf("server batch requests %d != client %d", got, res.BatchRequests)
	}
	if got := int(res.Server.BatchItems); got != res.Captures {
		t.Fatalf("server batch items %d != captures %d", got, res.Captures)
	}

	// One latency sample per round trip, and the quantiles still order.
	if res.LatencyP50 <= 0 || res.LatencyP50 > res.LatencyMax {
		t.Fatalf("latency quantiles out of order: %v/%v", res.LatencyP50, res.LatencyMax)
	}
	var buf bytes.Buffer
	if err := res.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	fams, err := promexp.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("loadgen exposition does not parse: %v\n%s", err, buf.String())
	}
	if f := fams["medsen_loadgen_batch_requests_total"]; f == nil || int(f.Samples[0].Value) != 8 {
		t.Fatalf("batch-requests family = %+v", f)
	}
}

// TestLoadgenBatchModeRejectsBadConfig pins the validation seams: a batch
// beyond the service cap and a batch+async combination both fail fast.
func TestLoadgenBatchModeRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{Devices: 1, Batch: cloud.MaxBatchItems + 1}); err == nil {
		t.Fatal("oversized Batch accepted")
	}
	if _, err := Run(context.Background(), Config{Devices: 1, Batch: 2, Async: true}); err == nil {
		t.Fatal("Batch+Async accepted")
	}
}

// TestLoadgenAsyncMode drives the job API end to end: submissions enqueue,
// poll, and resolve with no loss.
func TestLoadgenAsyncMode(t *testing.T) {
	_, url := hostService(t, cloud.ServiceConfig{Workers: 2, QueueDepth: 32})
	res, err := Run(context.Background(), Config{
		BaseURL:           url,
		Devices:           4,
		CapturesPerDevice: 2,
		Seed:              7,
		SharedCapture:     true,
		Async:             true,
		PollInterval:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Succeeded != 8 || res.CaptureLoss != 0 {
		t.Fatalf("async run = %+v", res)
	}
	if res.Server == nil || res.Server.JobsEnqueued == 0 {
		t.Fatalf("async run enqueued no jobs: %+v", res.Server)
	}
}

// TestLoadgenObservesRateLimiting: a deliberately throttled service turns
// fleet traffic into 429s, and the harness classifies them instead of
// conflating them with failures.
func TestLoadgenObservesRateLimiting(t *testing.T) {
	// All devices share the loopback address, so with auth disabled they
	// share one bucket: burst 2 admits two submissions, the rest bounce.
	_, url := hostService(t, cloud.ServiceConfig{RateLimit: 0.001, RateBurst: 2})
	res, err := Run(context.Background(), Config{
		BaseURL:       url,
		Devices:       6,
		Seed:          11,
		SharedCapture: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.RateLimited == 0 {
		t.Fatalf("throttled run reported no rate limiting: %+v", res)
	}
	if got := res.Succeeded + res.RateLimited + res.Overloaded + res.QueueFull +
		res.DuplicateInFlight + res.OtherErrors; got != res.Captures {
		t.Fatalf("outcomes sum to %d, want %d: %+v", got, res.Captures, res)
	}
	if res.CaptureLoss != 0 {
		t.Fatalf("capture loss = %d", res.CaptureLoss)
	}
}

// TestPercentileNearestRank pins the nearest-rank definition: the q-quantile
// of n samples is the ⌈q·n⌉-th smallest, so a fractional q·n rounds up.
func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{[]time.Duration{5, 1, 4, 2, 3}, 0.5, 3},
		{[]time.Duration{5, 1, 4, 2, 3}, 0.95, 5},
		{[]time.Duration{5, 1, 4, 2, 3}, 0.99, 5},
		{[]time.Duration{5, 1, 4, 2, 3}, 1, 5},
		{[]time.Duration{30, 10, 20}, 0.5, 20},
		{[]time.Duration{30, 10, 20}, 0.99, 30},
		{[]time.Duration{4, 1, 3, 2}, 0.5, 2},
	} {
		if got := percentile(tc.samples, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.samples, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}
