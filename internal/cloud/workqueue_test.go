package cloud

// Tests for the lease-based work queue (workqueue.go): the acquire/heartbeat/
// complete/fail lifecycle over HTTP, lease reclaim and owner fencing, the
// attempt budget and poison quarantine, startup lease reconciliation across a
// frontend restart, and the /readyz audit-appendability probe.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"medsen/internal/audit"
	"medsen/internal/csvio"
)

// newLeaseServer hosts a frontend in lease-queue mode (no in-process pool)
// and returns the service, test server, and a client.
func newLeaseServer(t *testing.T, cfg ServiceConfig) (*Service, *httptest.Server, *Client) {
	t.Helper()
	cfg.ExternalWorkers = true
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, &Client{BaseURL: ts.URL}
}

// pinClock replaces the service clock with a manual one and returns the
// advance function. The background reaper keeps ticking on wall time but
// evaluates expiries against this clock, so tests advance it and call
// reapLeases directly for deterministic reclaim timing.
func pinClock(svc *Service) func(d time.Duration) {
	var mu sync.Mutex
	base := time.Now()
	offset := time.Duration(0)
	svc.mu.Lock()
	svc.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return base.Add(offset)
	}
	svc.mu.Unlock()
	return func(d time.Duration) {
		mu.Lock()
		offset += d
		mu.Unlock()
	}
}

// analyzeGrant runs the real pipeline on a grant's payload, as a worker
// daemon would.
func analyzeGrant(t *testing.T, grant LeaseGrant) Report {
	t.Helper()
	acq, err := csvio.DecompressAcquisition(grant.Payload)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Analyze(acq, DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestWorkqueueLeaseLifecycle drives one job through the happy path over
// HTTP: submit → acquire → heartbeat → complete, with an idempotent
// re-complete and an empty-queue acquire on either side.
func TestWorkqueueLeaseLifecycle(t *testing.T) {
	_, _, client := func() (*Service, *httptest.Server, *Client) {
		return newLeaseServer(t, ServiceConfig{StateDir: t.TempDir(), LeaseTTL: time.Hour})
	}()
	ctx := context.Background()

	// Empty queue: granted=false, not an error.
	grant, err := client.AcquireJob(ctx, "w1")
	if err != nil {
		t.Fatalf("acquire on empty queue: %v", err)
	}
	if grant.Granted {
		t.Fatalf("empty queue granted a lease: %+v", grant)
	}

	_, payload := testCapture(t, 501, 10)
	job, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}

	grant, err = client.AcquireJob(ctx, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if !grant.Granted || grant.Job.ID != job.ID {
		t.Fatalf("acquire = %+v, want a grant on %s", grant, job.ID)
	}
	if grant.Job.Status != JobLeased || grant.Job.WorkerID != "w1" || grant.Job.Attempts != 1 {
		t.Fatalf("leased job = %+v, want leased by w1 attempt 1", grant.Job)
	}
	if string(grant.Payload) != string(payload) {
		t.Fatalf("grant payload %d bytes differs from submission %d bytes", len(grant.Payload), len(payload))
	}
	if grant.LeaseTTLSeconds != time.Hour.Seconds() || grant.LeaseExpiryUnix == 0 {
		t.Fatalf("lease bounds = %+v", grant)
	}

	// A poller sees the leased state with its holder.
	polled, err := client.GetJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if polled.Status != JobLeased || polled.WorkerID != "w1" {
		t.Fatalf("polled job = %+v, want leased by w1", polled)
	}

	// The queue is drained while the lease is out.
	if g, err := client.AcquireJob(ctx, "w2"); err != nil || g.Granted {
		t.Fatalf("second acquire = %+v, %v; want not granted", g, err)
	}

	hb, err := client.HeartbeatJob(ctx, job.ID, "w1")
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if hb.LeaseExpiryUnix < grant.LeaseExpiryUnix {
		t.Fatalf("heartbeat moved expiry backwards: %d -> %d", grant.LeaseExpiryUnix, hb.LeaseExpiryUnix)
	}

	// A non-owner cannot heartbeat, complete, or fail the job.
	if _, err := client.HeartbeatJob(ctx, job.ID, "w2"); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("foreign heartbeat = %v, want ErrLeaseLost", err)
	}
	if _, err := client.CompleteJob(ctx, job.ID, "w2", Report{}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("foreign complete = %v, want ErrLeaseLost", err)
	}
	if _, err := client.FailJob(ctx, job.ID, "w2", CodeInternal, "not mine"); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("foreign fail = %v, want ErrLeaseLost", err)
	}

	report := analyzeGrant(t, grant)
	done, err := client.CompleteJob(ctx, job.ID, "w1", report)
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if done.AnalysisID == "" {
		t.Fatal("complete returned no analysis id")
	}
	if _, err := client.GetReport(ctx, done.AnalysisID); err != nil {
		t.Fatalf("stored analysis unreadable: %v", err)
	}
	final := waitJob(t, client, job.ID)
	if final.Status != JobDone || final.AnalysisID != done.AnalysisID {
		t.Fatalf("final job = %+v", final)
	}
	if len(final.History) != 1 || final.History[0].Worker != "w1" || final.History[0].Outcome != "completed" {
		t.Fatalf("history = %+v, want one completed attempt by w1", final.History)
	}

	// Re-completing a done job is idempotent: a worker retrying a torn
	// response gets the same analysis id, no second store.
	again, err := client.CompleteJob(ctx, job.ID, "w1", report)
	if err != nil || again.AnalysisID != done.AnalysisID {
		t.Fatalf("idempotent re-complete = %+v, %v", again, err)
	}
	list, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("%d analyses stored, want 1", len(list))
	}
}

// TestWorkqueueReclaimFencesStaleWorker expires a lease under a pinned clock
// and asserts the reaper's reclaim plus the owner fence: the stale worker
// gets lease_lost everywhere and its late result is discarded, while the new
// holder completes normally.
func TestWorkqueueReclaimFencesStaleWorker(t *testing.T) {
	svc, _, client := newLeaseServer(t, ServiceConfig{StateDir: t.TempDir(), LeaseTTL: time.Hour})
	advance := pinClock(svc)
	ctx := context.Background()

	_, payload := testCapture(t, 502, 10)
	job, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := client.AcquireJob(ctx, "stale")
	if err != nil || !grant.Granted {
		t.Fatalf("acquire = %+v, %v", grant, err)
	}

	// The worker goes quiet past its TTL; the next reaper pass reclaims.
	advance(2 * time.Hour)
	svc.reapLeases()
	m := svc.Snapshot()
	if m.LeaseExpirations != 1 || m.JobsReclaimed != 1 {
		t.Fatalf("after reap: expirations=%d reclaimed=%d, want 1/1", m.LeaseExpirations, m.JobsReclaimed)
	}
	requeued, err := client.GetJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if requeued.Status != JobQueued || requeued.WorkerID != "" {
		t.Fatalf("reclaimed job = %+v, want queued with no holder", requeued)
	}
	if len(requeued.History) != 1 || requeued.History[0].Outcome != "reclaimed" || requeued.History[0].Worker != "stale" {
		t.Fatalf("history = %+v, want one reclaimed attempt by stale", requeued.History)
	}

	// The stale worker is fenced out of every mutation.
	if _, err := client.HeartbeatJob(ctx, job.ID, "stale"); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale heartbeat = %v, want ErrLeaseLost", err)
	}
	if _, err := client.CompleteJob(ctx, job.ID, "stale", analyzeGrant(t, grant)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale complete = %v, want ErrLeaseLost", err)
	}

	// The job re-runs under a new lease and completes exactly once.
	grant2, err := client.AcquireJob(ctx, "fresh")
	if err != nil || !grant2.Granted || grant2.Job.ID != job.ID {
		t.Fatalf("re-acquire = %+v, %v", grant2, err)
	}
	if grant2.Job.Attempts != 2 {
		t.Fatalf("re-acquire attempts = %d, want 2", grant2.Job.Attempts)
	}
	if _, err := client.CompleteJob(ctx, job.ID, "fresh", analyzeGrant(t, grant2)); err != nil {
		t.Fatalf("fresh complete: %v", err)
	}
	list, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("%d analyses stored after the fence race, want exactly 1", len(list))
	}
}

// TestWorkqueueQuarantine exhausts a job's attempt budget through worker
// fail reports and asserts the terminal poisoned state: full attempt
// history, audit event, metrics, and — because quarantine is a verdict on
// the job, not the capture — a fresh submission of the same capture runs
// with a fresh budget.
func TestWorkqueueQuarantine(t *testing.T) {
	log, err := audit.Open("")
	if err != nil {
		t.Fatal(err)
	}
	svc, _, client := newLeaseServer(t, ServiceConfig{
		StateDir: t.TempDir(), LeaseTTL: time.Hour, MaxAttempts: 2, Audit: log,
	})
	ctx := context.Background()

	_, payload := testCapture(t, 503, 10)
	job, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Attempt 1 fails: the job goes back on the queue.
	if g, err := client.AcquireJob(ctx, "w1"); err != nil || !g.Granted {
		t.Fatalf("acquire 1 = %+v, %v", g, err)
	}
	failed, err := client.FailJob(ctx, job.ID, "w1", CodeUnprocessable, "bad lysis")
	if err != nil {
		t.Fatal(err)
	}
	if failed.Status != JobQueued || failed.Attempts != 1 {
		t.Fatalf("after fail 1 = %+v, want queued attempt 1", failed)
	}

	// Attempt 2 fails at the budget: quarantined as terminal poisoned.
	if g, err := client.AcquireJob(ctx, "w2"); err != nil || !g.Granted {
		t.Fatalf("acquire 2 = %+v, %v", g, err)
	}
	poisoned, err := client.FailJob(ctx, job.ID, "w2", CodeUnprocessable, "bad lysis again")
	if err != nil {
		t.Fatal(err)
	}
	if poisoned.Status != JobPoisoned || poisoned.ErrorCode != CodeUnprocessable {
		t.Fatalf("after fail 2 = %+v, want poisoned with the worker's code", poisoned)
	}
	outcomes := make([]string, 0, len(poisoned.History))
	for _, a := range poisoned.History {
		outcomes = append(outcomes, a.Outcome)
	}
	if fmt.Sprint(outcomes) != "[failed failed quarantined]" {
		t.Fatalf("history outcomes = %v, want [failed failed quarantined]", outcomes)
	}
	if m := svc.Snapshot(); m.JobsPoisoned != 1 {
		t.Fatalf("JobsPoisoned = %d, want 1", m.JobsPoisoned)
	}
	if events := log.Snapshot("", "job.quarantine"); len(events) != 1 {
		t.Fatalf("%d job.quarantine audit events, want 1", len(events))
	}

	// Terminal for pollers: a SubmitAndPoll-style wait ends in the error,
	// never a stuck loop.
	if got := waitJob(t, client, job.ID); got.Status != JobPoisoned {
		t.Fatalf("terminal poll = %+v", got)
	}

	// The capture key was released with the quarantine: resubmitting the
	// same capture starts a new job with a fresh budget, which completes.
	job2, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatalf("resubmit after quarantine: %v", err)
	}
	if job2.ID == job.ID {
		t.Fatalf("resubmission reused the poisoned job %s", job.ID)
	}
	g, err := client.AcquireJob(ctx, "w3")
	if err != nil || !g.Granted || g.Job.ID != job2.ID {
		t.Fatalf("acquire resubmission = %+v, %v", g, err)
	}
	if g.Job.Attempts != 1 {
		t.Fatalf("fresh budget attempts = %d, want 1", g.Job.Attempts)
	}
	if _, err := client.CompleteJob(ctx, job2.ID, "w3", analyzeGrant(t, g)); err != nil {
		t.Fatal(err)
	}

	// The poisoned record remains queryable through the status filter.
	jobs, err := func() ([]Job, error) {
		j, _, err := client.ListJobsPage(ctx, JobFilter{Status: JobPoisoned})
		return j, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("poisoned listing = %+v, want just %s", jobs, job.ID)
	}
}

// TestFrontendRestartWithLiveLease is the crash-mid-job recovery matrix for
// the distributed topology: a frontend dies with a journaled lease
// outstanding and the restarted process must reconcile it — to the committed
// analysis when one exists, to a clean re-enqueue when the lease lapsed, or
// leave the still-valid lease with its worker. Never a stuck job.
func TestFrontendRestartWithLiveLease(t *testing.T) {
	ctx := context.Background()

	// restart tears down the serving stack without Shutdown — the crash —
	// and brings a fresh frontend up over the same state dir.
	restart := func(t *testing.T, ts *httptest.Server, dir string, cfg ServiceConfig) (*Service, *Client) {
		t.Helper()
		ts.Close()
		cfg.StateDir = dir
		cfg.ExternalWorkers = true
		svc2, err := NewService(cfg)
		if err != nil {
			t.Fatalf("restarting frontend: %v", err)
		}
		t.Cleanup(svc2.Close)
		ts2 := httptest.NewServer(svc2.Handler())
		t.Cleanup(ts2.Close)
		return svc2, &Client{BaseURL: ts2.URL}
	}

	t.Run("valid lease survives", func(t *testing.T) {
		dir := t.TempDir()
		svc, ts, client := newLeaseServer(t, ServiceConfig{StateDir: dir, LeaseTTL: time.Hour})
		_, payload := testCapture(t, 504, 10)
		job, err := client.SubmitCompressedAsync(ctx, payload)
		if err != nil {
			t.Fatal(err)
		}
		grant, err := client.AcquireJob(ctx, "wA")
		if err != nil || !grant.Granted {
			t.Fatalf("acquire = %+v, %v", grant, err)
		}
		svc.Close()
		_, client2 := restart(t, ts, dir, ServiceConfig{LeaseTTL: time.Hour})

		// The lease came back intact: still held by wA, not handed out.
		got, err := client2.GetJob(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != JobLeased || got.WorkerID != "wA" || got.Attempts != 1 {
			t.Fatalf("recovered job = %+v, want still leased by wA", got)
		}
		if g, err := client2.AcquireJob(ctx, "wB"); err != nil || g.Granted {
			t.Fatalf("acquire against live lease = %+v, %v; want not granted", g, err)
		}
		// The worker resumes against the new process as if nothing happened.
		if _, err := client2.HeartbeatJob(ctx, job.ID, "wA"); err != nil {
			t.Fatalf("heartbeat across restart: %v", err)
		}
		if _, err := client2.CompleteJob(ctx, job.ID, "wA", analyzeGrant(t, grant)); err != nil {
			t.Fatalf("complete across restart: %v", err)
		}
		if final := waitJob(t, client2, job.ID); final.Status != JobDone {
			t.Fatalf("final = %+v", final)
		}
	})

	t.Run("expired lease re-enqueues", func(t *testing.T) {
		dir := t.TempDir()
		svc, ts, client := newLeaseServer(t, ServiceConfig{StateDir: dir, LeaseTTL: time.Hour})
		// The first frontend's clock runs two hours behind: the hour-long
		// lease it grants has lapsed by the restarted frontend's clock, but
		// never by its own, so its reaper cannot reclaim the lease before the
		// crash however slowly the acquire journals it.
		pinClock(svc)(-2 * time.Hour)
		_, payload := testCapture(t, 505, 10)
		job, err := client.SubmitCompressedAsync(ctx, payload)
		if err != nil {
			t.Fatal(err)
		}
		if g, err := client.AcquireJob(ctx, "dead"); err != nil || !g.Granted {
			t.Fatalf("acquire = %+v, %v", g, err)
		}
		svc.Close()
		svc2, client2 := restart(t, ts, dir, ServiceConfig{LeaseTTL: time.Hour})

		// Startup reconciliation reclaimed it: queued again, attempt history
		// carries the lost lease, metrics show the reclaim.
		got, err := client2.GetJob(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != JobQueued || got.WorkerID != "" {
			t.Fatalf("reconciled job = %+v, want cleanly re-enqueued", got)
		}
		if len(got.History) != 1 || got.History[0].Outcome != "reclaimed" || got.History[0].Worker != "dead" {
			t.Fatalf("history = %+v, want the dead worker's reclaimed attempt", got.History)
		}
		if m := svc2.Snapshot(); m.LeaseExpirations != 1 || m.JobsReclaimed != 1 {
			t.Fatalf("reconcile metrics = expirations %d reclaimed %d, want 1/1", m.LeaseExpirations, m.JobsReclaimed)
		}
		// And it runs to done under a new worker.
		g, err := client2.AcquireJob(ctx, "wB")
		if err != nil || !g.Granted || g.Job.ID != job.ID || g.Job.Attempts != 2 {
			t.Fatalf("re-acquire = %+v, %v", g, err)
		}
		if _, err := client2.CompleteJob(ctx, job.ID, "wB", analyzeGrant(t, g)); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("committed analysis resolves", func(t *testing.T) {
		// The torn-complete state: the analysis document and dedup entry
		// committed but the job's done transition never journaled — the
		// restarted frontend (or the reaper) must settle the leased job to
		// the stored result instead of re-running the capture. The state is
		// constructed directly because a live complete writes both records
		// under one lock; only a crash between them produces it.
		svc, _, client := newLeaseServer(t, ServiceConfig{StateDir: t.TempDir(), LeaseTTL: time.Hour})
		advance := pinClock(svc)
		_, payload := testCapture(t, 506, 10)
		job, err := client.SubmitCompressedAsync(ctx, payload)
		if err != nil {
			t.Fatal(err)
		}
		grant, err := client.AcquireJob(ctx, "wA")
		if err != nil || !grant.Granted {
			t.Fatalf("acquire = %+v, %v", grant, err)
		}
		report := analyzeGrant(t, grant)
		svc.mu.Lock()
		analysisID, err := svc.storeReportLocked(report, "")
		if err == nil {
			svc.completeCaptureLocked(svc.jobs[job.ID].captureKey, analysisID)
		}
		svc.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}

		// The lease expires with the analysis already committed: the reap
		// (same path reconcileLeasesLocked takes at startup) settles the job
		// to done on the stored id — no re-run, no second analysis.
		advance(2 * time.Hour)
		svc.reapLeases()
		got, err := client.GetJob(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != JobDone || got.AnalysisID != analysisID {
			t.Fatalf("settled job = %+v, want done on %s", got, analysisID)
		}
		if m := svc.Snapshot(); m.JobsReclaimed != 0 {
			t.Fatalf("JobsReclaimed = %d, want 0 — the committed result must stand, not re-run", m.JobsReclaimed)
		}
		list, err := client.ListAnalyses(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != 1 {
			t.Fatalf("%d analyses stored, want exactly 1", len(list))
		}
	})
}

// TestListJobsRejectsUnknownStatus pins the ?status= contract: every
// lifecycle state filters (including the lease-era leased and poisoned), and
// an unknown value is a 400 invalid_request, not a silent empty list.
func TestListJobsRejectsUnknownStatus(t *testing.T) {
	_, ts, client := newLeaseServer(t, ServiceConfig{StateDir: t.TempDir(), LeaseTTL: time.Hour})
	ctx := context.Background()

	_, payload := testCapture(t, 507, 10)
	job, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := client.AcquireJob(ctx, "w1"); err != nil || !g.Granted {
		t.Fatalf("acquire = %+v, %v", g, err)
	}

	for _, status := range []JobStatus{JobQueued, JobRunning, JobLeased, JobDone, JobFailed, JobPoisoned} {
		jobs, err := func() ([]Job, error) { j, _, err := client.ListJobsPage(ctx, JobFilter{Status: status}); return j, err }()
		if err != nil {
			t.Fatalf("status=%s: %v", status, err)
		}
		if status == JobLeased {
			if len(jobs) != 1 || jobs[0].ID != job.ID {
				t.Fatalf("status=leased = %+v, want just %s", jobs, job.ID)
			}
		} else if len(jobs) != 0 {
			t.Fatalf("status=%s = %+v, want empty", status, jobs)
		}
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs?status=totally-bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown status answered %d, want 400", resp.StatusCode)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != CodeInvalidRequest {
		t.Fatalf("error code = %q, want %q", envelope.Error.Code, CodeInvalidRequest)
	}
}

// TestReadyzProbesAuditAppendability pins the readiness contract: a frontend
// whose audit trail can no longer take appends reports 503 from /readyz —
// it must fall out of rotation rather than serve requests it cannot account
// for — while the state-dir probe alone stays green.
func TestReadyzProbesAuditAppendability(t *testing.T) {
	stateDir := t.TempDir()
	auditDir := filepath.Join(stateDir, "audit")
	if err := os.MkdirAll(auditDir, 0o755); err != nil {
		t.Fatal(err)
	}
	log, err := audit.Open(filepath.Join(auditDir, "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newLeaseServer(t, ServiceConfig{StateDir: stateDir, Audit: log})

	ready := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := ready(); code != http.StatusOK {
		t.Fatalf("healthy /readyz = %d, want 200", code)
	}

	// The audit volume disappears (full disk, unmounted volume): the probe's
	// temp write beside the chain file fails, and readiness goes red even
	// though the state dir itself is still writable.
	if err := os.RemoveAll(auditDir); err != nil {
		t.Fatal(err)
	}
	if code := ready(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with an unappendable audit trail = %d, want 503", code)
	}
}
