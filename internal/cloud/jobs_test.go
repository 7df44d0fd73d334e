package cloud

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
)

// testCapture returns one deterministic compressed capture plus its
// acquisition.
func testCapture(t testing.TB, seed uint64, durationS float64) (lockin.Acquisition, []byte) {
	t.Helper()
	s := quietSensor()
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: durationS}, drbg.NewFromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := csvio.CompressAcquisition(res.Acquisition)
	if err != nil {
		t.Fatal(err)
	}
	return res.Acquisition, payload
}

// waitJob polls until the job reaches a terminal status.
func waitJob(t *testing.T, client *Client, id string) Job {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	for {
		job, err := client.GetJob(ctx, id)
		if err != nil {
			t.Fatalf("GetJob(%s): %v", id, err)
		}
		if job.Status.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts, client := newTestServer(t)
	ctx := context.Background()
	acq, payload := testCapture(t, 91, 30)

	// Raw HTTP first: 202, Location header, queued/running status.
	resp, err := http.Post(ts.URL+"/api/v1/analyses?async=1", "application/zip",
		strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/api/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}

	// Distinct idempotency keys: the raw POST above already owns the
	// payload-digest key, and these submissions model separate captures.
	job, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "lifecycle-async")
	if err != nil {
		t.Fatalf("SubmitCompressedAsyncKeyed: %v", err)
	}
	if job.ID == "" || job.Status != JobQueued {
		t.Fatalf("job = %+v", job)
	}
	done := waitJob(t, client, job.ID)
	if done.Status != JobDone || done.AnalysisID == "" {
		t.Fatalf("terminal job = %+v", done)
	}

	// The async path must store exactly what the sync path computes.
	asyncReport, err := client.GetReport(ctx, done.AnalysisID)
	if err != nil {
		t.Fatal(err)
	}
	syncSub, err := client.SubmitAcquisitionKeyed(ctx, acq, "lifecycle-sync")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asyncReport, syncSub.Report) {
		t.Fatal("async report differs from sync report for the same capture")
	}
}

func TestAsyncJobFailure(t *testing.T) {
	svc, _, client := newTestServer(t)
	job, err := client.SubmitCompressedAsync(context.Background(), []byte("not a zip"))
	if err != nil {
		t.Fatalf("SubmitCompressedAsync: %v", err)
	}
	done := waitJob(t, client, job.ID)
	if done.Status != JobFailed || done.ErrorCode != CodeInvalidRequest || done.Error == "" {
		t.Fatalf("failed job = %+v", done)
	}
	m := svc.Snapshot()
	if m.JobsFailed != 1 || m.UploadErrors != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestGetUnknownJob(t *testing.T) {
	_, _, client := newTestServer(t)
	_, err := client.GetJob(context.Background(), "job-404")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestAsyncBackpressure(t *testing.T) {
	svc, err := NewService(ServiceConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	svc.mu.Lock()
	svc.jobGate = gate
	svc.mu.Unlock()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	_, payload := testCapture(t, 93, 10)

	// First job: the single worker picks it up and stalls on the gate.
	// Explicit keys keep the three identical payloads from deduplicating —
	// this test is about queue capacity, not idempotency.
	j1, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "bp-1")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := client.GetJob(ctx, j1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", j1.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Second job fills the depth-1 queue.
	j2, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "bp-2")
	if err != nil {
		t.Fatal(err)
	}
	// Third submission must be rejected with 429 + Retry-After.
	_, err = client.SubmitCompressedAsyncKeyed(ctx, payload, "bp-3")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err %v is not an *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter <= 0 {
		t.Fatalf("apiErr = %+v", apiErr)
	}
	if m := svc.Snapshot(); m.JobsRejected != 1 {
		t.Fatalf("JobsRejected = %d", m.JobsRejected)
	}

	// Release the gate: both queued jobs must complete.
	close(gate)
	svc.mu.Lock()
	svc.jobGate = nil
	svc.mu.Unlock()
	for _, id := range []string{j1.ID, j2.ID} {
		if done := waitJob(t, client, id); done.Status != JobDone {
			t.Fatalf("job %s = %+v", id, done)
		}
	}
	svc.Close()
}

func TestSubmitAndPollRidesOutBackpressure(t *testing.T) {
	svc, err := NewService(ServiceConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	_, payload := testCapture(t, 95, 10)

	// Saturate the worker and queue, then verify SubmitAndPoll retries
	// through the 429s and still lands every capture.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	subs := make([]SubmitResponse, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subs[i], errs[i] = client.SubmitAndPollKeyed(ctx, payload, 5*time.Millisecond,
				fmt.Sprintf("ride-%d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("SubmitAndPoll #%d: %v", i, err)
		}
		if subs[i].ID == "" || subs[i].Report.PeakCount == 0 {
			t.Fatalf("submission #%d = %+v", i, subs[i])
		}
	}
	if m := svc.Snapshot(); m.JobsCompleted != 4 || m.StoredAnalyses != 4 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestSubmitAndPollReportsJobFailure(t *testing.T) {
	_, _, client := newTestServer(t)
	_, err := client.SubmitAndPoll(context.Background(), []byte("garbage"), 5*time.Millisecond)
	if !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("err = %v, want ErrInvalidRequest", err)
	}
}

func TestSubmitAndPollHonorsContext(t *testing.T) {
	svc, err := NewService(ServiceConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	svc.mu.Lock()
	svc.jobGate = gate
	svc.mu.Unlock()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	_, payload := testCapture(t, 97, 10)
	client := &Client{BaseURL: ts.URL}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.SubmitAndPoll(ctx, payload, 10*time.Millisecond)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("SubmitAndPoll ignored context cancellation")
	}
	close(gate)
	svc.Close()
}

// TestConcurrentSubmissionsStress fires parallel sync and async uploads at
// one service and asserts store consistency and metrics under -race.
func TestConcurrentSubmissionsStress(t *testing.T) {
	svc, _, client := newTestServer(t)
	ctx := context.Background()
	_, payload := testCapture(t, 99, 10)

	const syncN, asyncN = 6, 6
	var wg sync.WaitGroup
	errCh := make(chan error, syncN+asyncN)
	ids := make(chan string, syncN+asyncN)
	for i := 0; i < syncN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := client.SubmitCompressedKeyed(ctx, payload, fmt.Sprintf("stress-sync-%d", i))
			if err != nil {
				errCh <- err
				return
			}
			ids <- sub.ID
		}(i)
	}
	for i := 0; i < asyncN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := client.SubmitAndPollKeyed(ctx, payload, 5*time.Millisecond,
				fmt.Sprintf("stress-async-%d", i))
			if err != nil {
				errCh <- err
				return
			}
			ids <- sub.ID
		}(i)
	}
	wg.Wait()
	close(errCh)
	close(ids)
	for err := range errCh {
		t.Fatalf("concurrent submission: %v", err)
	}

	// Every submission got a distinct id and a retrievable report.
	seen := make(map[string]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate analysis id %s", id)
		}
		seen[id] = true
		if _, err := client.GetReport(ctx, id); err != nil {
			t.Fatalf("GetReport(%s): %v", id, err)
		}
	}
	if len(seen) != syncN+asyncN {
		t.Fatalf("stored %d analyses, want %d", len(seen), syncN+asyncN)
	}
	m := svc.Snapshot()
	if m.Uploads != syncN+asyncN || m.StoredAnalyses != syncN+asyncN {
		t.Fatalf("metrics = %+v", m)
	}
	if m.JobsEnqueued != asyncN || m.JobsCompleted != asyncN || m.JobsFailed != 0 {
		t.Fatalf("job metrics = %+v", m)
	}
	if m.UploadErrors != 0 {
		t.Fatalf("upload errors = %d", m.UploadErrors)
	}

	// The listing total matches regardless of page size.
	page, total, err := client.ListAnalysesPage(ctx, Page{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if total != syncN+asyncN || len(page) != 5 {
		t.Fatalf("page len %d total %d", len(page), total)
	}
}
