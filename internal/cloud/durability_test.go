package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medsen/internal/auth"
)

// waitJobRunning polls until the job leaves the queue (a gated worker picked
// it up). A 404 is tolerated while waiting: the submission may still be in
// flight on another goroutine.
func waitJobRunning(t *testing.T, client *Client, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := client.GetJob(context.Background(), id)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("GetJob(%s): %v", id, err)
		}
		if err == nil && j.Status == JobRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started (status %s)", id, j.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobsRecoverAcrossRestart is the crash-recovery acceptance test: jobs
// accepted before a teardown — including the one a worker had already picked
// up — are re-enqueued by a fresh service over the same StateDir, reach
// done, and keep their pre-restart ids so a poller is never answered 404.
func TestJobsRecoverAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, payload := testCapture(t, 101, 10)

	svc, err := NewService(ServiceConfig{StateDir: dir, Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	svc.mu.Lock()
	svc.jobGate = gate
	svc.mu.Unlock()
	ts := httptest.NewServer(svc.Handler())
	client := &Client{BaseURL: ts.URL}

	const n = 4
	var ids []string
	for i := 0; i < n; i++ {
		// Distinct keys: four separate captures that happen to share bytes,
		// not four retries of one capture.
		job, err := client.SubmitCompressedAsyncKeyed(ctx, payload, fmt.Sprintf("recover-%d", i))
		if err != nil {
			t.Fatalf("submit #%d: %v", i, err)
		}
		ids = append(ids, job.ID)
	}
	// The single worker holds job 1 at the gate; the rest stay queued.
	waitJobRunning(t, client, ids[0])

	// Tear down mid-flight. The gated worker aborts without finishing, so
	// every job's journal still holds its payload.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ts.Close()

	svc2, err := NewService(ServiceConfig{StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("rebuilding service: %v", err)
	}
	t.Cleanup(svc2.Close)
	ts2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(ts2.Close)
	client2 := &Client{BaseURL: ts2.URL}

	if m := svc2.Snapshot(); m.JobsRecovered != n {
		t.Fatalf("JobsRecovered = %d, want %d", m.JobsRecovered, n)
	}
	// A poller holding any pre-restart job id sees it through to done, and
	// the analysis it produced is retrievable.
	for _, id := range ids {
		done := waitJob(t, client2, id)
		if done.Status != JobDone || done.AnalysisID == "" {
			t.Fatalf("recovered job %s = %+v", id, done)
		}
		if _, err := client2.GetReport(ctx, done.AnalysisID); err != nil {
			t.Fatalf("GetReport(%s): %v", done.AnalysisID, err)
		}
	}
	// New submissions continue the id sequence past the recovered jobs.
	job, err := client2.SubmitCompressedAsyncKeyed(ctx, payload, "recover-post-restart")
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-"+strconv.Itoa(n+1) {
		t.Fatalf("post-restart id = %s, want job-%d", job.ID, n+1)
	}
	if done := waitJob(t, client2, job.ID); done.Status != JobDone {
		t.Fatalf("post-restart job = %+v", done)
	}
}

// TestRecoveredTerminalJobsServePollers restores done and failed records
// across a restart: a poller that missed the terminal transition still gets
// the outcome (with its error code), not a 404.
func TestRecoveredTerminalJobsServePollers(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, payload := testCapture(t, 103, 10)

	svc, err := NewService(ServiceConfig{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	client := &Client{BaseURL: ts.URL}
	good, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	goodDone := waitJob(t, client, good.ID)
	bad, err := client.SubmitCompressedAsync(ctx, []byte("not a zip"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, client, bad.ID)
	svc.Close()
	ts.Close()

	svc2, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	ts2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(ts2.Close)
	client2 := &Client{BaseURL: ts2.URL}

	j, err := client2.GetJob(ctx, good.ID)
	if err != nil {
		t.Fatalf("done job lost across restart: %v", err)
	}
	if j.Status != JobDone || j.AnalysisID != goodDone.AnalysisID {
		t.Fatalf("recovered done job = %+v", j)
	}
	if _, err := client2.GetReport(ctx, j.AnalysisID); err != nil {
		t.Fatal(err)
	}
	j, err = client2.GetJob(ctx, bad.ID)
	if err != nil {
		t.Fatalf("failed job lost across restart: %v", err)
	}
	if j.Status != JobFailed || j.ErrorCode != CodeInvalidRequest || j.Error == "" {
		t.Fatalf("recovered failed job = %+v", j)
	}
}

// TestSubmitAndPollSurvivesRestart drives the client through a full service
// restart mid-poll: an outage window answering 503, then a recovered
// service. The poll must ride it out and return the completed analysis.
func TestSubmitAndPollSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, payload := testCapture(t, 105, 10)

	svc, err := NewService(ServiceConfig{StateDir: dir, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	svc.mu.Lock()
	svc.jobGate = gate
	svc.mu.Unlock()

	// One stable URL whose backing handler is swapped: service 1 → outage
	// (all 503) → service 2, like a restarting deployment behind a LB.
	var handler atomic.Pointer[http.Handler]
	store := func(h http.Handler) { handler.Store(&h) }
	store(svc.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}

	type result struct {
		sub SubmitResponse
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		sub, err := client.SubmitAndPoll(ctx, payload, 5*time.Millisecond)
		resCh <- result{sub, err}
	}()
	waitJobRunning(t, client, "job-1")

	var outagePolls atomic.Int64
	store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		outagePolls.Add(1)
		writeError(w, http.StatusServiceUnavailable, CodeInternal, errors.New("restarting"))
	}))
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // let the poller hit the outage
	svc2, err := NewService(ServiceConfig{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	store(svc2.Handler())

	r := <-resCh
	if r.err != nil {
		t.Fatalf("SubmitAndPoll across restart: %v", r.err)
	}
	if r.sub.ID == "" || r.sub.Report.PeakCount == 0 {
		t.Fatalf("submission = %+v", r.sub)
	}
	if outagePolls.Load() == 0 {
		t.Fatal("poller never exercised the outage window")
	}
	if m := svc2.Snapshot(); m.JobsRecovered != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", m.JobsRecovered)
	}
}

// TestShutdownDrainsInFlight: Shutdown lets the analysis a worker is running
// finish, rejects new submissions, leaves the backlog journaled, and a
// rebuilt service completes it.
func TestShutdownDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, payload := testCapture(t, 107, 10)

	svc, err := NewService(ServiceConfig{StateDir: dir, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{}, 1)
	svc.mu.Lock()
	svc.jobGate = gate
	svc.mu.Unlock()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}

	j1, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "drain-1")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "drain-2")
	if err != nil {
		t.Fatal(err)
	}
	waitJobRunning(t, client, j1.ID)
	gate <- struct{}{} // release exactly the in-flight job

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	done, err := client.GetJob(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != JobDone {
		t.Fatalf("in-flight job not drained: %+v", done)
	}
	second, err := client.GetJob(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status.Terminal() {
		t.Fatalf("backlog job should not have run after Shutdown: %+v", second)
	}
	if _, err := client.SubmitCompressedAsync(ctx, payload); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("submission after shutdown: %v, want ErrUnavailable", err)
	}

	// The journaled backlog completes on the next service generation.
	svc2, err := NewService(ServiceConfig{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	ts2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(ts2.Close)
	if d := waitJob(t, &Client{BaseURL: ts2.URL}, j2.ID); d.Status != JobDone {
		t.Fatalf("backlog job after restart = %+v", d)
	}
}

// TestJobRetentionTTL evicts terminal records past the TTL — from memory
// and from the journal — answering 404 with the standard envelope.
func TestJobRetentionTTL(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, payload := testCapture(t, 109, 10)

	svc, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}

	job, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, client, job.ID)

	// Advance the retention clock past the default 1 h TTL.
	svc.mu.Lock()
	svc.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	svc.mu.Unlock()

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job status %d, want 404", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeNotFound || env.Error.Message == "" {
		t.Fatalf("envelope = %+v", env)
	}
	if m := svc.Snapshot(); m.JobsEvicted != 1 {
		t.Fatalf("JobsEvicted = %d, want 1", m.JobsEvicted)
	}
	// The journal document is gone too, so the record stays gone across a
	// restart.
	if _, err := os.Stat(filepath.Join(dir, job.ID+".json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("journal document survived eviction: %v", err)
	}
}

// TestJobRetentionCountBound keeps only the newest MaxTerminalJobs terminal
// records.
func TestJobRetentionCountBound(t *testing.T) {
	ctx := context.Background()
	_, payload := testCapture(t, 111, 10)

	svc, err := NewService(ServiceConfig{JobTTL: -1, MaxTerminalJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}

	var ids []string
	for i := 0; i < 3; i++ {
		job, err := client.SubmitCompressedAsyncKeyed(ctx, payload, fmt.Sprintf("retain-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, client, job.ID)
		ids = append(ids, job.ID)
	}
	if _, err := client.GetJob(ctx, ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest terminal job: %v, want ErrNotFound", err)
	}
	for _, id := range ids[1:] {
		if _, err := client.GetJob(ctx, id); err != nil {
			t.Fatalf("retained job %s: %v", id, err)
		}
	}
	if m := svc.Snapshot(); m.JobsEvicted != 1 {
		t.Fatalf("JobsEvicted = %d, want 1", m.JobsEvicted)
	}
}

// TestListJobs covers the listing endpoint: numeric id order (job-2 before
// job-10), the status filter, pagination, and filter validation.
func TestListJobs(t *testing.T) {
	ctx := context.Background()
	svc, err := NewService(ServiceConfig{JobTTL: -1, MaxTerminalJobs: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	// Inject records directly: twelve ids prove numeric ordering, mixed
	// states prove the filter.
	svc.mu.Lock()
	for i := 1; i <= 12; i++ {
		id := "job-" + strconv.Itoa(i)
		status := JobDone
		if i%3 == 0 {
			status = JobQueued
		}
		svc.jobs[id] = &queuedJob{Job: Job{ID: id, Status: status}, doneAt: svc.now()}
	}
	svc.mu.Unlock()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}

	jobs, err := client.ListJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 12 {
		t.Fatalf("listed %d jobs, want 12", len(jobs))
	}
	for i, j := range jobs {
		if want := "job-" + strconv.Itoa(i+1); j.ID != want {
			t.Fatalf("jobs[%d] = %s, want %s (numeric order)", i, j.ID, want)
		}
	}

	queued, total, err := client.ListJobsPage(ctx, JobFilter{Status: JobQueued})
	if err != nil {
		t.Fatal(err)
	}
	if len(queued) != 4 || total != 4 {
		t.Fatalf("queued filter: %d rows, total %d, want 4", len(queued), total)
	}
	for _, j := range queued {
		if j.Status != JobQueued {
			t.Fatalf("filter leaked %+v", j)
		}
	}

	page, total, err := client.ListJobsPage(ctx, JobFilter{Page: Page{Limit: 3, Offset: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if total != 12 || len(page) != 3 || page[0].ID != "job-10" {
		t.Fatalf("page = %+v, total %d", page, total)
	}

	if _, _, err := client.ListJobsPage(ctx, JobFilter{Status: "bogus"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("bad filter: %v, want ErrInvalidRequest", err)
	}
}

// TestRejectedSubmissionLeavesNoIDGap: a 429 rejection must not burn a job
// id — the next accepted submission continues the sequence.
func TestRejectedSubmissionLeavesNoIDGap(t *testing.T) {
	ctx := context.Background()
	_, payload := testCapture(t, 113, 10)

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

	j1, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "gap-1")
	if err != nil {
		t.Fatal(err)
	}
	waitJobRunning(t, client, j1.ID)
	j2, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "gap-2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "gap-3"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission: %v, want ErrQueueFull", err)
	}

	close(gate)
	waitJob(t, client, j1.ID)
	waitJob(t, client, j2.ID)
	j3, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "gap-4")
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "job-3" {
		t.Fatalf("id after rejection = %s, want job-3 (no gap)", j3.ID)
	}
	waitJob(t, client, j3.ID)
	svc.Close()
}

// TestPersistFailureNoGhostAnalysis injects a persistence failure into the
// synchronous submit path and the batch item path (the document's temp path
// is blocked by a directory, the portable stand-in for an unwritable
// StateDir) and checks nothing leaks: no ghost analysis, no counted upload,
// no burned id — and the failure is counted as an upload error.
func TestPersistFailureNoGhostAnalysis(t *testing.T) {
	acq, payload := testCapture(t, 115, 10)
	for _, tc := range []struct {
		name   string
		submit func(context.Context, *Client) (SubmitResponse, error)
	}{
		{"sync", func(ctx context.Context, client *Client) (SubmitResponse, error) {
			return client.SubmitAcquisition(ctx, acq)
		}},
		{"batch", func(ctx context.Context, client *Client) (SubmitResponse, error) {
			resp, err := client.SubmitBatch(ctx, []BatchSubmission{{Payload: payload}})
			if err != nil {
				return SubmitResponse{}, err
			}
			if r := resp.Results[0]; r.Error != nil {
				return SubmitResponse{}, &APIError{Code: r.Error.Code, Message: r.Error.Message, Status: r.Status}
			}
			return SubmitResponse{ID: resp.Results[0].ID}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			if err := os.Mkdir(filepath.Join(dir, "an-1.json.tmp"), 0o700); err != nil {
				t.Fatal(err)
			}
			_, _, client := newPersistentServer(t, dir)

			_, err := tc.submit(ctx, client)
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("submit with broken persistence: %v, want ErrInternal", err)
			}
			if _, err := client.GetReport(ctx, "an-1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("ghost analysis visible: %v", err)
			}
			list, err := client.ListAnalyses(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(list) != 0 {
				t.Fatalf("ghost analyses listed: %+v", list)
			}

			// Repair the directory: the retried upload reuses an-1, proving the
			// counter was not bumped by the failure.
			if err := os.Remove(filepath.Join(dir, "an-1.json.tmp")); err != nil {
				t.Fatal(err)
			}
			sub, err := tc.submit(ctx, client)
			if err != nil {
				t.Fatal(err)
			}
			if sub.ID != "an-1" {
				t.Fatalf("retried id = %s, want an-1", sub.ID)
			}
			metrics, err := fetchMetrics(ctx, client)
			if err != nil {
				t.Fatal(err)
			}
			if metrics.Uploads != 1 {
				t.Fatalf("Uploads = %d, want 1 (failure must not count)", metrics.Uploads)
			}
			if metrics.UploadErrors != 1 {
				t.Fatalf("UploadErrors = %d, want 1 (the failed store is an upload error)", metrics.UploadErrors)
			}
		})
	}
}

// TestPersistFailureNoGhostJob is the async twin: a journal write failure
// rejects the submission instead of accepting a job that could not be made
// durable.
func TestPersistFailureNoGhostJob(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	if err := os.Mkdir(filepath.Join(dir, "job-1.json.tmp"), 0o700); err != nil {
		t.Fatal(err)
	}
	svc, _, client := newPersistentServer(t, dir)
	_, payload := testCapture(t, 117, 10)

	_, err := client.SubmitCompressedAsync(ctx, payload)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("async submit with broken persistence: %v, want ErrInternal", err)
	}
	if _, err := client.GetJob(ctx, "job-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost job visible: %v", err)
	}
	if m := svc.Snapshot(); m.JobsEnqueued != 0 {
		t.Fatalf("JobsEnqueued = %d, want 0", m.JobsEnqueued)
	}

	// Repair: the next submission succeeds (the failed id stays burned —
	// its queue slot was consumed — but the job completes normally).
	if err := os.Remove(filepath.Join(dir, "job-1.json.tmp")); err != nil {
		t.Fatal(err)
	}
	job, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitJob(t, client, job.ID); done.Status != JobDone {
		t.Fatalf("job after repair = %+v", done)
	}
}

// fetchMetrics reads GET /metrics through the client transport.
func fetchMetrics(ctx context.Context, client *Client) (Metrics, error) {
	var m Metrics
	err := client.do(ctx, http.MethodGet, "/metrics", nil, "", "", &m, nil)
	return m, err
}

// TestCloseEnqueuePollRace hammers Close, enqueueJob, and job polling
// concurrently; run under -race it guards the locking discipline around the
// job queue and the jobs map.
func TestCloseEnqueuePollRace(t *testing.T) {
	ctx := context.Background()
	for iter := 0; iter < 10; iter++ {
		svc, err := NewService(ServiceConfig{Workers: 2, QueueDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		client := &Client{BaseURL: ts.URL}
		payload := []byte("not a zip") // exercises the failJob path too

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < 5; k++ {
					_ = svc.enqueueJob(payload, "", auth.Principal{}) // rejection and shutdown errors are expected
				}
			}()
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 1; k <= 10; k++ {
					_, _ = client.GetJob(ctx, "job-"+strconv.Itoa(k)) // 404s are expected
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			svc.Close()
		}()
		close(start)
		wg.Wait()
		svc.Close()
		ts.Close()
	}
}

// TestParseRetryAfterForms covers both RFC 9110 Retry-After forms.
func TestParseRetryAfterForms(t *testing.T) {
	mk := func(v string) http.Header {
		h := make(http.Header)
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	if d := parseRetryAfter(mk("")); d != 0 {
		t.Fatalf("absent header → %v", d)
	}
	if d := parseRetryAfter(mk("3")); d != 3*time.Second {
		t.Fatalf("delta-seconds → %v, want 3s", d)
	}
	if d := parseRetryAfter(mk("-2")); d != 0 {
		t.Fatalf("negative delta → %v", d)
	}
	if d := parseRetryAfter(mk("soon")); d != 0 {
		t.Fatalf("garbage → %v", d)
	}
	// The HTTP-date form, as rewritten by proxies.
	future := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(mk(future)); d <= 3*time.Second || d > 5*time.Second {
		t.Fatalf("http-date → %v, want ≈5s", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(mk(past)); d != 0 {
		t.Fatalf("past http-date → %v", d)
	}
}

// TestUserAnalysesNumericOrder is the regression test for the listing-order
// bug: with ≥10 analyses a lexical sort puts an-10 before an-2; the user
// listing must order numerically like the global listing does.
func TestUserAnalysesNumericOrder(t *testing.T) {
	svc, _, client := newTestServer(t)
	ctx := context.Background()
	const n = 12
	svc.mu.Lock()
	for i := n; i >= 1; i-- { // reversed so only a real sort fixes the order
		id := "an-" + strconv.Itoa(i)
		svc.analyses[id] = &storedAnalysis{UserID: "alice"}
		svc.byUser["alice"] = append(svc.byUser["alice"], id)
	}
	svc.mu.Unlock()

	ids, err := client.UserAnalyses(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n {
		t.Fatalf("listed %d ids, want %d", len(ids), n)
	}
	for i, id := range ids {
		if want := "an-" + strconv.Itoa(i+1); id != want {
			t.Fatalf("ids[%d] = %s, want %s (numeric order)", i, id, want)
		}
	}
	// Pagination slices the numerically ordered sequence.
	page, total, err := client.UserAnalysesPage(ctx, "alice", Page{Limit: 2, Offset: 9})
	if err != nil {
		t.Fatal(err)
	}
	if total != n || len(page) != 2 || page[0] != "an-10" || page[1] != "an-11" {
		t.Fatalf("page = %v, total %d", page, total)
	}
}

// TestShutdownIdempotent: Shutdown and Close compose in any order without
// panics or hangs.
func TestShutdownIdempotent(t *testing.T) {
	svc, err := NewService(ServiceConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close()

	svc2, err := NewService(ServiceConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc2.Close()
	if err := svc2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if res := svc2.enqueueJob([]byte("x"), "", auth.Principal{}); res.err == nil {
		t.Fatal("enqueue after shutdown should fail")
	}
}

// TestLoadJobsSalvagesCorruptJournal mirrors the analysis-store salvage test
// for the job journal: torn and id-less documents are quarantined (counted
// per document), healthy ones load, and strict mode still refuses both.
func TestLoadJobsSalvagesCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-1.json"), []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	// Decodes fine but carries no id — semantic corruption salvages too.
	if err := os.WriteFile(filepath.Join(dir, "job-2.json"), []byte(`{"status":"queued"}`), 0o600); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("salvage mode should start over a corrupt journal: %v", err)
	}
	defer svc.Close()
	if got := svc.Snapshot().StoreSalvaged; got != 2 {
		t.Fatalf("StoreSalvaged = %d, want 2", got)
	}
	for _, name := range []string{"job-1.json", "job-2.json"} {
		if _, err := os.Stat(filepath.Join(dir, "corrupt", name)); err != nil {
			t.Fatalf("%s not quarantined: %v", name, err)
		}
	}

	for _, doc := range []string{"{broken", `{"status":"queued"}`} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "job-1.json"), []byte(doc), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := NewService(ServiceConfig{StateDir: dir, StrictLoad: true}); err == nil {
			t.Fatalf("strict mode should refuse journal document %q", doc)
		}
	}
}

func TestJobIDNumber(t *testing.T) {
	if n, err := jobIDNumber("job-42"); err != nil || n != 42 {
		t.Fatalf("jobIDNumber = %d, %v", n, err)
	}
	if _, err := jobIDNumber("an-42"); err == nil {
		t.Fatal("expected error for foreign id")
	}
	if _, err := jobIDNumber(fmt.Sprintf("job-%s", "x")); err == nil {
		t.Fatal("expected error for non-numeric id")
	}
}
