package cloud

// Tests for the one job queue the in-process pool and the lease acquire API
// share (jobs.go, workqueue.go): its bound, its recovery across a restart,
// and the hybrid topology in which both consumers drain it. Also the fuzzer
// for the workqueue request bodies.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"
)

// TestFailedJobWriteHoldsNoQueueSlot: a submission whose job document cannot
// be written answers 500 and leaves nothing queued, so the next submission
// still fits a depth-1 queue.
func TestFailedJobWriteHoldsNoQueueSlot(t *testing.T) {
	store := newFaultStore()
	svc, _, client := newLeaseServer(t, ServiceConfig{Store: store, QueueDepth: 1, StoreRecoveryInterval: -1})
	ctx := context.Background()

	store.failNext(KindJob, 0)
	_, err := client.SubmitCompressedAsyncKeyed(ctx, []byte("capture"), "orphan-1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("submit over a failed job write = %v, want 500", err)
	}
	if m := svc.Snapshot(); m.QueueDepth != 0 || m.JobsEnqueued != 0 {
		t.Fatalf("after the failed write queue_depth = %d, jobs_enqueued = %d; want 0 and 0",
			m.QueueDepth, m.JobsEnqueued)
	}
	job, err := client.SubmitCompressedAsyncKeyed(ctx, []byte("capture"), "orphan-2")
	if err != nil || job.Status != JobQueued {
		t.Fatalf("next submit = %+v, %v; want 202 queued", job, err)
	}
	if m := svc.Snapshot(); m.QueueDepth != 1 {
		t.Fatalf("queue_depth = %d, want 1", m.QueueDepth)
	}
}

// TestRecoveredBacklogCountsAgainstQueueDepth: jobs recovered at startup
// occupy the queue like any other, so a restart over a backlog deeper than
// QueueDepth refuses new async work with 429 queue_full until a worker takes
// the backlog.
func TestRecoveredBacklogCountsAgainstQueueDepth(t *testing.T) {
	store := NewMemStore()
	ctx := context.Background()
	svc, ts, client := newLeaseServer(t, ServiceConfig{Store: store, QueueDepth: 8})
	const backlog = 3
	for i := 0; i < backlog; i++ {
		if _, err := client.SubmitCompressedAsyncKeyed(ctx, []byte("capture"), fmt.Sprintf("backlog-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	ts.Close()

	svc2, _, client2 := newLeaseServer(t, ServiceConfig{Store: store, QueueDepth: 2})
	if m := svc2.Snapshot(); m.JobsRecovered != backlog || m.QueueDepth != backlog {
		t.Fatalf("jobs_recovered = %d, queue_depth = %d; want %d and %d",
			m.JobsRecovered, m.QueueDepth, backlog, backlog)
	}
	_, err := client2.SubmitCompressedAsyncKeyed(ctx, []byte("capture"), "after-restart")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over the recovered backlog = %v, want ErrQueueFull", err)
	}
	for i := 0; i < backlog; i++ {
		grant, err := client2.AcquireJob(ctx, "w1")
		if want := fmt.Sprintf("job-%d", i+1); err != nil || !grant.Granted || grant.Job.ID != want {
			t.Fatalf("acquire %d = %+v, %v; want a lease on %s", i, grant, err, want)
		}
	}
	job, err := client2.SubmitCompressedAsyncKeyed(ctx, []byte("capture"), "after-restart")
	if err != nil || job.ID != fmt.Sprintf("job-%d", backlog+1) {
		t.Fatalf("submit after the backlog drained = %+v, %v; want job-%d", job, err, backlog+1)
	}
}

// TestHybridPoolFinishesReclaimedLease runs both consumers of the queue at
// once: the pool is held on job A while an external worker leases job B and
// lets the lease lapse. The reclaim puts B back on the queue, and the pool
// finishes it once A is released.
func TestHybridPoolFinishesReclaimedLease(t *testing.T) {
	svc, err := NewService(ServiceConfig{Store: NewMemStore(), Workers: 1, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	gate := make(chan struct{})
	svc.mu.Lock()
	svc.jobGate = gate
	svc.mu.Unlock()
	advance := pinClock(svc)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	_, payloadA := testCapture(t, 601, 10)
	_, payloadB := testCapture(t, 602, 10)

	jobA, err := client.SubmitCompressedAsync(ctx, payloadA)
	if err != nil {
		t.Fatal(err)
	}
	waitJobRunning(t, client, jobA.ID)
	jobB, err := client.SubmitCompressedAsync(ctx, payloadB)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := client.AcquireJob(ctx, "stale")
	if err != nil || !grant.Granted || grant.Job.ID != jobB.ID {
		t.Fatalf("acquire = %+v, %v; want a lease on %s", grant, err, jobB.ID)
	}
	advance(2 * time.Hour)
	svc.reapLeases()
	if m := svc.Snapshot(); m.JobsReclaimed != 1 || m.QueueDepth != 1 {
		t.Fatalf("after the reap jobs_reclaimed = %d, queue_depth = %d; want 1 and 1", m.JobsReclaimed, m.QueueDepth)
	}
	close(gate)

	for _, id := range []string{jobA.ID, jobB.ID} {
		if done := waitJob(t, client, id); done.Status != JobDone {
			t.Fatalf("job %s = %+v, want done", id, done)
		}
	}
	b, err := client.GetJob(ctx, jobB.ID)
	if err != nil {
		t.Fatal(err)
	}
	var history []string
	for _, a := range b.History {
		history = append(history, a.Worker+": "+a.Outcome)
	}
	if fmt.Sprint(history) != "[stale: reclaimed in-process: completed]" || b.Attempts != 2 {
		t.Fatalf("job B history = %v after %d attempts, want [stale: reclaimed in-process: completed] after 2",
			history, b.Attempts)
	}
	// Exactly one stored analysis per capture.
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	if len(svc.analyses) != 2 || len(svc.dedup) != 2 {
		t.Fatalf("%d analyses, %d dedup entries; want 2 and 2", len(svc.analyses), len(svc.dedup))
	}
	for _, payload := range [][]byte{payloadA, payloadB} {
		if e := svc.dedup[CaptureKey(payload)]; e == nil || svc.analyses[e.analysisID] == nil {
			t.Fatalf("capture %s resolves to no stored analysis", CaptureKey(payload))
		}
	}
}

// TestQueueConsumersTakeEachJobOnce races submitters, the in-process pool
// and two lease workers over one queue: every job runs exactly once, by
// exactly one consumer.
func TestQueueConsumersTakeEachJobOnce(t *testing.T) {
	svc, err := NewService(ServiceConfig{Store: NewMemStore(), Workers: 2, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	_, payload := testCapture(t, 603, 10)
	report, _, err := AnalyzeUpload(payload, DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var workers sync.WaitGroup
	for _, worker := range []string{"w1", "w2"} {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				grant, err := client.AcquireJob(ctx, worker)
				if err != nil {
					t.Error(err)
					return
				}
				if !grant.Granted {
					time.Sleep(time.Millisecond)
					continue
				}
				if _, err := client.CompleteJob(ctx, grant.Job.ID, worker, report); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	const jobs = 16
	ids := make([]string, jobs)
	var submitters sync.WaitGroup
	for i := range ids {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			job, err := client.SubmitCompressedAsyncKeyed(ctx, payload, fmt.Sprintf("race-%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = job.ID
		}()
	}
	submitters.Wait()
	for _, id := range ids {
		if id == "" {
			t.FailNow()
		}
		if job := waitJob(t, client, id); job.Status != JobDone || job.Attempts != 1 || len(job.History) != 1 {
			t.Errorf("job %s = %s after %d attempts, history %+v; want done once", id, job.Status, job.Attempts, job.History)
		}
	}
	close(stop)
	workers.Wait()
	if m := svc.Snapshot(); m.StoredAnalyses != jobs || m.JobsCompleted != jobs {
		t.Fatalf("stored %d analyses and completed %d jobs, want %d each", m.StoredAnalyses, m.JobsCompleted, jobs)
	}
}

// FuzzWorkqueueBodies sends arbitrary job ids and bodies to the acquire,
// heartbeat, complete and fail endpoints of a MemStore frontend holding one
// job leased to worker w1. The handlers must never panic and must answer
// 200, 400, 404 or 409.
func FuzzWorkqueueBodies(f *testing.F) {
	f.Add(uint8(0), "", []byte(`{"worker_id":"w2"}`))
	f.Add(uint8(0), "", []byte(`{}`))
	f.Add(uint8(1), "job-1", []byte(`{"worker_id":"w1"}`))
	f.Add(uint8(1), "job-9", []byte(`{"worker_id":"w1"}`))
	f.Add(uint8(2), "job-1", []byte(`{"worker_id":"w1","report":{"peak_count":3}}`))
	f.Add(uint8(2), "job-1", []byte(`{"worker_id":"w2","report":{}}`))
	f.Add(uint8(3), "job-1", []byte(`{"worker_id":"w1","code":"unprocessable","message":"bad"}`))
	f.Add(uint8(3), "job-1", []byte(`{"worker_id":"w1"}`))
	f.Add(uint8(3), "job-1", []byte("not json"))

	f.Fuzz(func(t *testing.T, op uint8, id string, body []byte) {
		path := "/api/v1/workqueue/acquire"
		if verb := [...]string{"", "heartbeat", "complete", "fail"}[op%4]; verb != "" {
			if id == "" || id == "." || id == ".." {
				// Empty and dot segments are cleaned (and redirected) by
				// the router before any workqueue handler sees them.
				return
			}
			path = "/api/v1/workqueue/jobs/" + url.PathEscape(id) + "/" + verb
		}
		svc, err := NewService(ServiceConfig{Store: NewMemStore(), ExternalWorkers: true, StoreRecoveryInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		handler := svc.Handler()
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec
		}
		if rec := post("/api/v1/analyses?async=1", []byte("capture")); rec.Code != http.StatusAccepted {
			t.Fatalf("seeding submit answered %d", rec.Code)
		}
		if rec := post("/api/v1/workqueue/acquire", []byte(`{"worker_id":"w1"}`)); rec.Code != http.StatusOK {
			t.Fatalf("seeding acquire answered %d", rec.Code)
		}

		switch rec := post(path, body); rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
		default:
			t.Fatalf("POST %s with %q answered %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
