package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"medsen/internal/audit"
)

// TestSyncResubmitReturnsOriginal: the same payload submitted twice (no
// explicit key — the digest fallback) analyzes once; the duplicate answers
// 200 with the original analysis.
func TestSyncResubmitReturnsOriginal(t *testing.T) {
	svc, _, client := newTestServer(t)
	ctx := context.Background()
	_, payload := testCapture(t, 131, 10)

	first, err := client.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("duplicate got %s, want the original %s", second.ID, first.ID)
	}
	if !reflect.DeepEqual(second.Report, first.Report) {
		t.Fatal("duplicate returned a different report")
	}
	m := svc.Snapshot()
	if m.StoredAnalyses != 1 {
		t.Fatalf("StoredAnalyses = %d, want 1", m.StoredAnalyses)
	}
	if m.DedupHits != 1 || m.DedupEntries != 1 {
		t.Fatalf("dedup metrics = hits %d entries %d, want 1/1", m.DedupHits, m.DedupEntries)
	}
}

// TestSyncDuplicateStatusCode: the wire contract — first submission 201,
// duplicate 200.
func TestSyncDuplicateStatusCode(t *testing.T) {
	_, ts, _ := newTestServer(t)
	_, payload := testCapture(t, 133, 10)

	for i, want := range []int{http.StatusCreated, http.StatusOK} {
		resp, err := http.Post(ts.URL+"/api/v1/analyses", "application/zip",
			strings.NewReader(string(payload)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("submission %d status %d, want %d", i, resp.StatusCode, want)
		}
	}
}

// TestExplicitKeySemantics: the Idempotency-Key header overrides the digest —
// two different payloads under one key dedup, one payload under two keys
// analyzes twice.
func TestExplicitKeySemantics(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()
	_, p1 := testCapture(t, 135, 10)
	_, p2 := testCapture(t, 137, 10)

	a, err := client.SubmitCompressedKeyed(ctx, p1, "capture-x")
	if err != nil {
		t.Fatal(err)
	}
	// Different bytes, same key: the key wins (this is what lets a client
	// re-send a capture it re-compressed).
	b, err := client.SubmitCompressedKeyed(ctx, p2, "capture-x")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != a.ID {
		t.Fatalf("same key produced %s and %s", a.ID, b.ID)
	}
	// Same bytes, different keys: two logical captures, two analyses.
	c, err := client.SubmitCompressedKeyed(ctx, p1, "capture-y")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Fatalf("distinct key deduped to %s", a.ID)
	}
}

// TestOverlongIdempotencyKeyRejected: an adversarial header must not become
// a storage amplifier.
func TestOverlongIdempotencyKeyRejected(t *testing.T) {
	_, ts, _ := newTestServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/analyses",
		strings.NewReader("zip bytes"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", strings.Repeat("k", maxIdempotencyKeyLen+1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overlong key status %d, want 400", resp.StatusCode)
	}
}

// TestAsyncDuplicateReturnsOwningJob: while the owning job is live a
// duplicate async submit returns the same job; a sync duplicate answers 409
// duplicate_in_flight with a Location pointing at the job; after completion
// both paths return the stored analysis without re-running it.
func TestAsyncDuplicateReturnsOwningJob(t *testing.T) {
	svc, err := NewService(ServiceConfig{Workers: 1, QueueDepth: 4})
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
	_, payload := testCapture(t, 139, 10)

	job, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != job.ID {
		t.Fatalf("duplicate got job %s, want %s", dup.ID, job.ID)
	}

	// A sync duplicate of the in-flight job: 409 + Location + Retry-After.
	resp, err := http.Post(ts.URL+"/api/v1/analyses", "application/zip",
		strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("sync duplicate status %d, want 409", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/api/v1/jobs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("409 carried no Retry-After")
	}
	_, err = client.SubmitCompressed(ctx, payload)
	if !errors.Is(err, ErrDuplicateInFlight) {
		t.Fatalf("sync duplicate err = %v, want ErrDuplicateInFlight", err)
	}

	close(gate)
	svc.mu.Lock()
	svc.jobGate = nil
	svc.mu.Unlock()
	done := waitJob(t, client, job.ID)
	if done.Status != JobDone {
		t.Fatalf("job = %+v", done)
	}

	// Post-completion duplicates resolve to the stored analysis: async gets
	// the done job, sync gets 200 with the original id.
	after, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if after.Status != JobDone || after.AnalysisID != done.AnalysisID {
		t.Fatalf("post-completion async duplicate = %+v", after)
	}
	sub, err := client.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != done.AnalysisID {
		t.Fatalf("post-completion sync duplicate = %s, want %s", sub.ID, done.AnalysisID)
	}
	if m := svc.Snapshot(); m.StoredAnalyses != 1 {
		t.Fatalf("StoredAnalyses = %d, want 1", m.StoredAnalyses)
	}
	svc.Close()
}

// TestAsyncDuplicateOfStoredAnalysisGetsLocation is the regression test for
// the unpollable synthesized job: an async duplicate of an already stored
// analysis used to answer 202 with a done job that had no id, no Location
// header, and no audit record — an accepted submission the caller could not
// follow anywhere. The 202 must point at the stored analysis and the dedup
// hit must land in the audit trail.
func TestAsyncDuplicateOfStoredAnalysisGetsLocation(t *testing.T) {
	log, err := audit.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	svc, err := NewService(ServiceConfig{Audit: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	_, payload := testCapture(t, 143, 10)

	// The capture arrives synchronously first, so the dedup entry holds an
	// analysis id but no job record.
	first, err := client.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Raw async duplicate: the headers are the contract under test.
	resp, err := http.Post(ts.URL+"/api/v1/analyses?async=true", "application/zip",
		strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async duplicate status %d, want 202", resp.StatusCode)
	}
	wantLoc := "/api/v1/analyses/" + first.ID
	if loc := resp.Header.Get("Location"); loc != wantLoc {
		t.Fatalf("Location = %q, want %q", loc, wantLoc)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID != "" || job.Status != JobDone || job.AnalysisID != first.ID {
		t.Fatalf("synthesized job = %+v", job)
	}

	// The Location is followable: it serves the stored analysis.
	got, err := http.Get(ts.URL + wantLoc)
	if err != nil {
		t.Fatal(err)
	}
	got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d, want 200", wantLoc, got.StatusCode)
	}

	// The dedup hit is audited against the analysis it resolved to.
	recs := log.Snapshot("", "job.dedup")
	if len(recs) != 1 || recs[0].Object != first.ID || recs[0].Outcome != audit.OutcomeOK {
		t.Fatalf("job.dedup audit records = %+v, want one OK record for %s", recs, first.ID)
	}

	// The client wrapper resolves the same duplicate straight to the report.
	again, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != JobDone || again.AnalysisID != first.ID {
		t.Fatalf("client async duplicate = %+v", again)
	}
}

// TestSubmitAndPollDuplicateSkipsPolling: once the owning job's record has
// been evicted, a duplicate submit gets a synthesized done job with no id —
// SubmitAndPoll must fetch the report directly instead of polling a 404.
func TestSubmitAndPollDuplicateSkipsPolling(t *testing.T) {
	svc, err := NewService(ServiceConfig{JobTTL: -1, MaxTerminalJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	_, payload := testCapture(t, 141, 10)

	first, err := client.SubmitAndPoll(ctx, payload, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Evict the done job record (count bound 1: a second job's completion
	// pushes the first out). The dedup entry must outlive it.
	_, err = client.SubmitAndPollKeyed(ctx, payload, 2*time.Millisecond, "evictor")
	if err != nil {
		t.Fatal(err)
	}
	again, err := client.SubmitAndPoll(ctx, payload, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("duplicate after job eviction: %v", err)
	}
	if again.ID != first.ID {
		t.Fatalf("duplicate got %s, want %s", again.ID, first.ID)
	}
}

// TestFailedJobReleasesKey: a capture whose analysis failed terminally may be
// retried — exactly-once success, not at-most-once attempts.
func TestFailedJobReleasesKey(t *testing.T) {
	svc, _, client := newTestServer(t)
	ctx := context.Background()

	bad, err := client.SubmitCompressedAsyncKeyed(ctx, []byte("not a zip"), "flaky-capture")
	if err != nil {
		t.Fatal(err)
	}
	if done := waitJob(t, client, bad.ID); done.Status != JobFailed {
		t.Fatalf("job = %+v", done)
	}
	// The retry under the same key is admitted as fresh work, not deduped to
	// the failure.
	retry, err := client.SubmitCompressedAsyncKeyed(ctx, []byte("not a zip"), "flaky-capture")
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID == bad.ID {
		t.Fatal("retry returned the failed job")
	}
	waitJob(t, client, retry.ID)
	if m := svc.Snapshot(); m.JobsFailed != 2 {
		t.Fatalf("JobsFailed = %d, want 2 (both attempts ran)", m.JobsFailed)
	}
}

// TestDedupSurvivesRestart is the crash-recovery satellite: the journaled
// index restores with the rest of the state, so a capture replayed against
// the next process maps to its pre-crash analysis instead of re-running.
func TestDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, payload := testCapture(t, 143, 10)

	_, _, client := newPersistentServer(t, dir)
	sub, err := client.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	job, err := client.SubmitCompressedAsyncKeyed(ctx, payload, "keyed-capture")
	if err != nil {
		t.Fatal(err)
	}
	jobDone := waitJob(t, client, job.ID)

	// "Crash": no shutdown, just a new service over the same directory.
	svc2, _, client2 := newPersistentServer(t, dir)
	if m := svc2.Snapshot(); m.DedupEntries != 2 {
		t.Fatalf("restored DedupEntries = %d, want 2", m.DedupEntries)
	}
	replayed, err := client2.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.ID != sub.ID {
		t.Fatalf("replay got %s, want pre-crash %s", replayed.ID, sub.ID)
	}
	async, err := client2.SubmitCompressedAsyncKeyed(ctx, payload, "keyed-capture")
	if err != nil {
		t.Fatal(err)
	}
	if async.Status != JobDone || async.AnalysisID != jobDone.AnalysisID {
		t.Fatalf("keyed replay = %+v, want done with %s", async, jobDone.AnalysisID)
	}
	if m := svc2.Snapshot(); m.StoredAnalyses != 2 {
		t.Fatalf("StoredAnalyses = %d, want 2 (no re-analysis)", m.StoredAnalyses)
	}
}

// TestDedupIndexReconciliation: entries pointing at vanished work are
// dropped on load (the capture must stay retryable), and a done job backfills
// its analysis id.
func TestDedupIndexReconciliation(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// An entry whose analysis does not exist, and one with no referent at
	// all: both must be dropped, not trusted.
	svc.mu.Lock()
	for _, e := range []*dedupEntry{
		{key: "ghost-analysis", analysisID: "an-99", seq: 1},
		{key: "ghost-job", jobID: "job-99", seq: 2},
	} {
		svc.dedup[e.key] = e
		svc.journalDedupLocked(e)
	}
	svc.mu.Unlock()
	svc.Close()

	svc2, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	svc2.mu.RLock()
	n := len(svc2.dedup)
	svc2.mu.RUnlock()
	if n != 0 {
		t.Fatalf("%d dangling dedup entries survived reconciliation", n)
	}
}

// TestDedupEviction: past MaxDedupEntries the oldest completed entries are
// evicted; pending reservations and live-job entries survive.
func TestDedupEviction(t *testing.T) {
	svc, err := NewService(ServiceConfig{MaxDedupEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.mu.Lock()
	svc.insertDedupLocked(&dedupEntry{key: "old", analysisID: "an-1"})
	svc.insertDedupLocked(&dedupEntry{key: "live", jobID: "job-1"})
	svc.jobs["job-1"] = &queuedJob{Job: Job{ID: "job-1", Status: JobRunning}}
	svc.insertDedupLocked(&dedupEntry{key: "new", analysisID: "an-2"})
	_, oldAlive := svc.dedup["old"]
	_, liveAlive := svc.dedup["live"]
	_, newAlive := svc.dedup["new"]
	svc.mu.Unlock()
	if oldAlive {
		t.Fatal("oldest completed entry not evicted at the cap")
	}
	if !liveAlive || !newAlive {
		t.Fatal("live-job or newest entry evicted")
	}
}

// TestDedupEvictionPastFullIndex inserts past a full index: each insert
// evicts exactly the oldest completed entry, passing over a pending
// reservation, a live job's entry and entries already released, and costs
// a constant number of allocations however large the index is.
func TestDedupEvictionPastFullIndex(t *testing.T) {
	const max, extra = 1000, 300
	svc, err := NewService(ServiceConfig{MaxDedupEntries: max})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.mu.Lock()
	defer svc.mu.Unlock()
	done := func(i int) *dedupEntry {
		return &dedupEntry{key: fmt.Sprintf("k%d", i), analysisID: fmt.Sprintf("an-%d", i)}
	}
	svc.insertDedupLocked(done(0))
	svc.insertDedupLocked(&dedupEntry{key: "pending", pending: true})
	svc.insertDedupLocked(&dedupEntry{key: "live", jobID: "job-1"})
	svc.jobs["job-1"] = &queuedJob{Job: Job{ID: "job-1", Status: JobRunning}}
	svc.insertDedupLocked(&dedupEntry{key: "released", jobID: "job-2"})
	svc.releaseCaptureLocked("released", "job-2")
	for i := 1; i < max-2; i++ {
		svc.insertDedupLocked(done(i))
	}
	if len(svc.dedup) != max {
		t.Fatalf("%d entries before the bound is passed, want %d", len(svc.dedup), max)
	}
	for i := max - 2; i < max-2+extra; i++ {
		svc.insertDedupLocked(done(i))
	}
	// Survivors: the two in-flight entries and the newest max-2 completed.
	want := map[string]bool{"pending": true, "live": true}
	for i := extra; i < max-2+extra; i++ {
		want[fmt.Sprintf("k%d", i)] = true
	}
	if len(svc.dedup) != len(want) {
		t.Fatalf("%d entries survive, want %d", len(svc.dedup), len(want))
	}
	for key := range want {
		if svc.dedup[key] == nil {
			t.Fatalf("entry %q evicted", key)
		}
	}

	next := max - 2 + extra
	entries := make([]*dedupEntry, 101)
	for i := range entries {
		entries[i] = done(next + i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		svc.insertDedupLocked(entries[0])
		entries = entries[1:]
	})
	if allocs > 1 {
		t.Fatalf("an insert past the bound allocates %v times", allocs)
	}
	if len(svc.dedup) != max {
		t.Fatalf("%d entries after the timed inserts, want %d", len(svc.dedup), max)
	}
}
