package cloud

// Durable-state integrity tests: the checksummed envelope, unknown-field
// round-trip, salvage semantics (quarantine + audit + counter), the dedup
// index against salvaged jobs, read-only degraded mode, eviction-delete
// retries, the MemStore backend, and the offline fsck used by
// `medsen-keytool store fsck`.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"medsen/internal/audit"
	"medsen/internal/faultinject"
)

func TestDocEnvelopeRoundTrip(t *testing.T) {
	body := []byte(`{"id":"an-1","report":{}}`)
	env, err := encodeEnvelope(KindAnalysis, "an-1", body)
	if err != nil {
		t.Fatal(err)
	}
	got, legacy, err := decodeEnvelope(env, KindAnalysis, "an-1")
	if err != nil || legacy {
		t.Fatalf("decodeEnvelope: %v (legacy=%t)", err, legacy)
	}
	if string(got) != string(body) {
		t.Fatalf("body = %s, want %s", got, body)
	}

	// A flipped bit inside the body fails the checksum.
	flipped := []byte(strings.Replace(string(env), `an-1`, `an-2`, 1))
	if _, _, err := decodeEnvelope(flipped, KindAnalysis, "an-1"); err == nil {
		t.Fatal("bit-flipped envelope should fail")
	}

	// A document filed under the wrong kind or id is rejected even when the
	// checksum holds — a rename cannot smuggle one record over another.
	if _, _, err := decodeEnvelope(env, KindJob, "an-1"); err == nil {
		t.Fatal("kind mismatch should fail")
	}
	if _, _, err := decodeEnvelope(env, KindAnalysis, "an-7"); err == nil {
		t.Fatal("id mismatch should fail")
	}

	// Pre-envelope documents pass through unchanged.
	raw := []byte(`{"id":"an-1","user_id":"alice"}`)
	got, legacy, err = decodeEnvelope(raw, KindAnalysis, "an-1")
	if err != nil || !legacy || string(got) != string(raw) {
		t.Fatalf("legacy passthrough = %s, legacy=%t, err=%v", got, legacy, err)
	}
}

// FuzzDecodeEnvelope feeds arbitrary bytes to the envelope decoder the way
// the offline fsck does (no kind or id to cross-check). It must never panic;
// an accepted envelope's body must hash to the checksum it claims, and that
// body must re-encode to a document that decodes to the same body.
func FuzzDecodeEnvelope(f *testing.F) {
	valid, err := encodeEnvelope(KindJob, "job-3", []byte(`{"id":"job-3","status":"queued"}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// A body as another encoder might write it: spaced, with unescaped HTML.
	spaced := `{ "id": "an-1", "note": "<b>" }`
	f.Add([]byte(fmt.Sprintf(`{"v":1,"kind":"analysis","id":"an-1","sha256":%q,"body":%s}`,
		bodySum([]byte(spaced)), spaced)))
	f.Add([]byte(`{"id":"an-1","report":{}}`))
	f.Add([]byte(`{"v":2,"sha256":"00"}`))
	f.Add([]byte(`{"v":1,"kind":"analysis","id":"an-1","sha256":"x","body":{}}`))
	f.Add([]byte("null"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		body, legacy, err := decodeEnvelope(raw, "", "")
		if err != nil || legacy {
			return
		}
		var env docEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("accepted envelope does not re-parse: %v", err)
		}
		if bodySum(body) != env.SHA256 {
			t.Fatalf("accepted body hashes to %s, envelope claims %s", bodySum(body), env.SHA256)
		}
		again, err := encodeEnvelope(DocKind(env.Kind), env.ID, body)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		got, legacy, err := decodeEnvelope(again, DocKind(env.Kind), env.ID)
		if err != nil || legacy || string(got) != string(body) {
			t.Fatalf("re-encoded body %q decodes to %q (legacy=%t, err=%v)", body, got, legacy, err)
		}
	})
}

// TestUnknownFieldsSurviveRoundTrip: documents written by a newer binary
// carry fields this one does not know; loading and re-persisting the record
// must write them back byte-identically instead of stripping them.
func TestUnknownFieldsSurviveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	anDoc := `{"id":"an-1","report":{},"x_future_field":{"keep":"me"}}`
	jobDoc := `{"id":"job-1","status":"done","analysis_id":"an-1","x_job_future":42}`
	if err := os.WriteFile(filepath.Join(dir, "an-1.json"), []byte(anDoc), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-1.json"), []byte(jobDoc), 0o600); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Snapshot().StoreSalvaged; got != 0 {
		t.Fatalf("StoreSalvaged = %d, want 0", got)
	}

	// Force a re-persist of both records.
	svc.mu.Lock()
	if err := svc.persistAnalysis("an-1", svc.analyses["an-1"]); err != nil {
		svc.mu.Unlock()
		t.Fatal(err)
	}
	if err := svc.persistJob(svc.jobs["job-1"], nil, true); err != nil {
		svc.mu.Unlock()
		t.Fatal(err)
	}
	svc.mu.Unlock()

	checks := []struct{ file, key, want string }{
		{"an-1.json", "x_future_field", `{"keep":"me"}`},
		{"job-1.json", "x_job_future", `42`},
	}
	for _, c := range checks {
		raw, err := os.ReadFile(filepath.Join(dir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		body, legacy, err := decodeEnvelope(raw, "", "")
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if legacy {
			t.Fatalf("%s: re-persisted document is still legacy (no envelope)", c.file)
		}
		var all map[string]json.RawMessage
		if err := json.Unmarshal(body, &all); err != nil {
			t.Fatal(err)
		}
		if got := string(all[c.key]); got != c.want {
			t.Fatalf("%s: unknown field %s = %q, want %q", c.file, c.key, got, c.want)
		}
	}
}

// TestDedupEntryForSalvagedJobResolves: a dedup-index entry pointing at a
// job whose journal document was quarantined must resolve cleanly at load —
// the entry is dropped so the capture key can re-run — instead of wedging
// the key against a job that no longer exists.
func TestDedupEntryForSalvagedJobResolves(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-1.json"), []byte("\x00garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	key := "capture-key-1"
	dedupName := dedupFilePrefix + dedupDocID(key) + ".json"
	entry := fmt.Sprintf(`{"key":%q,"job_id":"job-1","seq":1}`, key)
	if err := os.WriteFile(filepath.Join(dir, dedupName), []byte(entry), 0o600); err != nil {
		t.Fatal(err)
	}

	svc, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Snapshot().StoreSalvaged; got != 1 {
		t.Fatalf("StoreSalvaged = %d, want 1 (the job document)", got)
	}
	svc.mu.RLock()
	_, wedged := svc.dedup[key]
	svc.mu.RUnlock()
	if wedged {
		t.Fatal("dedup entry for the salvaged job survived the load")
	}
	if _, err := os.Stat(filepath.Join(dir, dedupName)); !os.IsNotExist(err) {
		t.Fatalf("stale dedup document not removed: %v", err)
	}

	// The key is free: a new submission under it runs and completes.
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}
	_, payload := testCapture(t, 311, 10)
	job, err := client.SubmitCompressedAsyncKeyed(context.Background(), payload, key)
	if err != nil {
		t.Fatalf("submit under the freed key: %v", err)
	}
	if done := waitJob(t, client, job.ID); done.Status != JobDone {
		t.Fatalf("job = %+v, want done", done)
	}
}

// TestSalvageAuditEvent: every quarantined document lands in the audit trail
// under the store actor, so an operator can see what a restart set aside.
func TestSalvageAuditEvent(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "an-1.json"), []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	log, err := audit.Open("")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{StateDir: dir, Audit: log})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	recs := log.Snapshot(storeActor, "store.salvage")
	if len(recs) != 1 {
		t.Fatalf("store.salvage audit records = %d, want 1", len(recs))
	}
	if recs[0].Object != "an-1.json" || recs[0].Detail == "" {
		t.Fatalf("salvage record = %+v", recs[0])
	}
}

// TestDegradedModeReadOnly drives the full degraded-mode state machine over
// a sticky full disk: mutations 503 with the degraded code, reads keep
// serving, /readyz flips, the workqueue stops granting leases, and the
// service heals itself the moment the disk does.
func TestDegradedModeReadOnly(t *testing.T) {
	ffs := faultinject.NewFS(nil, faultinject.FSConfig{})
	svc, err := NewService(ServiceConfig{
		StateDir: t.TempDir(),
		FS:       ffs,
		// Recovery is driven by the opportunistic probe in this test; the
		// periodic prober is disabled so transitions are deterministic.
		StoreRecoveryInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	_, payload := testCapture(t, 611, 10)
	sub, err := client.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}

	// The disk fills. The first submission fails on its own durable write
	// (500 — the write error is the request's error) and flips the service
	// degraded because the confirming probe also fails.
	ffs.SetDiskFull(true)
	_, otherPayload := testCapture(t, 612, 10)
	if _, err := client.SubmitCompressed(ctx, otherPayload); err == nil {
		t.Fatal("submit on a full disk should fail")
	}
	if got := svc.Snapshot().StoreDegraded; got != 1 {
		t.Fatalf("StoreDegraded = %d, want 1", got)
	}

	// Subsequent mutations are refused up front with the degraded code and a
	// Retry-After hint.
	_, err = client.SubmitCompressed(ctx, otherPayload)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !errors.Is(err, ErrDegraded) {
		t.Fatalf("submit while degraded: %v, want degraded APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.RetryAfter <= 0 {
		t.Fatalf("degraded response = status %d, retry-after %v", apiErr.Status, apiErr.RetryAfter)
	}

	// Reads keep serving the stored record.
	if _, err := client.GetReport(ctx, sub.ID); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}

	// The readiness probe flips so a load balancer drains the instance.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready ||
		!strings.Contains(ready.Reason, "store degraded") {
		t.Fatalf("/readyz while degraded = %d %+v", resp.StatusCode, ready)
	}

	// The workqueue hands out no leases while the journal cannot record them.
	grantBody := strings.NewReader(`{"worker_id":"w1"}`)
	resp, err = http.Post(ts.URL+"/api/v1/workqueue/acquire", "application/json", grantBody)
	if err != nil {
		t.Fatal(err)
	}
	var grant LeaseGrant
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if grant.Granted {
		t.Fatal("acquire granted a lease while degraded")
	}

	// The disk heals: the very next mutation recovers the service and lands.
	ffs.SetDiskFull(false)
	if _, err := client.SubmitCompressed(ctx, otherPayload); err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	if got := svc.Snapshot().StoreDegraded; got != 0 {
		t.Fatalf("StoreDegraded after recovery = %d, want 0", got)
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovery: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestStoreRecoveryProber: with the periodic prober enabled, a degraded
// service heals on its own — no request has to find the healed disk.
func TestStoreRecoveryProber(t *testing.T) {
	ffs := faultinject.NewFS(nil, faultinject.FSConfig{})
	svc, err := NewService(ServiceConfig{
		StateDir:              t.TempDir(),
		FS:                    ffs,
		StoreRecoveryInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	ffs.SetDiskFull(true)
	svc.noteStoreWrite(errors.New("injected"))
	if !svc.degraded.Load() {
		t.Fatal("service did not degrade")
	}
	ffs.SetDiskFull(false)
	deadline := time.Now().Add(2 * time.Second)
	for svc.degraded.Load() {
		if time.Now().After(deadline) {
			t.Fatal("prober did not recover the service")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBestEffortJournalFaultNeverDegrades replays the sequence behind the
// disk chaos soak's "StoreDegraded after healing" flake: a submission's
// analysis write lands, the best-effort dedup-journal write behind it fails,
// and so would the confirming probe. The request is answered 201, so the
// service must stay read-write: the journal failure is only counted.
func TestBestEffortJournalFaultNeverDegrades(t *testing.T) {
	store := newFaultStore()
	svc, err := NewService(ServiceConfig{Store: store, StoreRecoveryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}

	_, payload := testCapture(t, 613, 10)
	store.failNext(KindDedup, 1)
	if _, err := client.SubmitCompressed(context.Background(), payload); err != nil {
		t.Fatalf("submit with a faulted dedup journal: %v", err)
	}
	m := svc.Snapshot()
	if m.StoreDegraded != 0 {
		t.Fatal("a best-effort journal fault degraded a service that had just answered 201")
	}
	if m.DedupJournalErrors != 1 {
		t.Fatalf("DedupJournalErrors = %d, want 1", m.DedupJournalErrors)
	}
}

// flakyDeleteStore fails Delete while armed, for the eviction-retry test.
type flakyDeleteStore struct {
	*MemStore
	fail atomic.Bool
}

func (f *flakyDeleteStore) Delete(kind DocKind, id string) error {
	if f.fail.Load() {
		return errors.New("injected delete failure")
	}
	return f.MemStore.Delete(kind, id)
}

// TestEvictDeleteFailureRetries: a failed journal-document delete is counted
// (job_evict_errors) and re-attempted on a later retention sweep, so a
// transiently read-only volume cannot leak terminal records forever.
func TestEvictDeleteFailureRetries(t *testing.T) {
	store := &flakyDeleteStore{MemStore: NewMemStore()}
	svc, err := NewService(ServiceConfig{Store: store, Workers: 1, JobTTL: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	// Arm the failing delete before the job exists: the nanosecond TTL means
	// the completion path's own sweep evicts the terminal record immediately,
	// and that very delete must fail to exercise the retry.
	store.fail.Store(true)
	_, payload := testCapture(t, 711, 10)
	if _, err := client.SubmitCompressedAsync(ctx, payload); err != nil {
		t.Fatal(err)
	}
	// Poll the completion counter rather than GetJob: with a nanosecond TTL
	// the very first poll would sweep the terminal record away.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Snapshot().JobsCompleted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job did not complete")
		}
		time.Sleep(time.Millisecond)
	}
	if got := svc.Snapshot().JobEvictErrors; got == 0 {
		t.Fatal("failed delete not counted in JobEvictErrors")
	}
	if store.Len(KindJob) != 1 {
		t.Fatalf("job documents = %d, want 1 (delete failed)", store.Len(KindJob))
	}

	// The volume heals; the next sweep's retry removes the document.
	store.fail.Store(false)
	if _, err := client.ListJobs(ctx); err != nil {
		t.Fatal(err)
	}
	if store.Len(KindJob) != 0 {
		t.Fatalf("job documents = %d, want 0 after the retry sweep", store.Len(KindJob))
	}
}

// TestMemStoreBackendSurvivesRestart: the same salvage-capable load path
// works over the in-memory backend — hand one MemStore to two successive
// services and the second sees the first's state, envelopes and all.
func TestMemStoreBackendSurvivesRestart(t *testing.T) {
	store := NewMemStore()
	ctx := context.Background()

	svc1, err := NewService(ServiceConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	client1 := &Client{BaseURL: ts1.URL}
	_, payload := testCapture(t, 811, 10)
	sub, err := client1.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	svc1.Close()

	svc2, err := NewService(ServiceConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	client2 := &Client{BaseURL: ts2.URL}
	report, err := client2.GetReport(ctx, sub.ID)
	if err != nil {
		t.Fatalf("analysis lost across MemStore restart: %v", err)
	}
	if report.PeakCount != sub.Report.PeakCount {
		t.Fatalf("restored report peaks = %d, want %d", report.PeakCount, sub.Report.PeakCount)
	}
}

// TestFsckStateDir: the offline verifier behind `medsen-keytool store fsck`
// counts healthy and legacy documents and reports every corrupt one without
// touching the directory.
func TestFsckStateDir(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(DiskStoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodeEnvelope(KindAnalysis, "an-1", []byte(`{"id":"an-1","report":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(KindAnalysis, "an-1", good); err != nil {
		t.Fatal(err)
	}
	// A legacy pre-envelope document, a checksum-corrupt envelope, and
	// outright garbage.
	writeFile := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("an-2.json", `{"id":"an-2","report":{}}`)
	writeFile("job-1.json", strings.Replace(string(good), "an-1", "jb-1", 1))
	writeFile("job-2.json", "{torn")
	writeFile("README.txt", "not a document")

	checked, legacy, issues, err := FsckStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if checked != 4 || legacy != 1 {
		t.Fatalf("checked = %d legacy = %d, want 4 and 1", checked, legacy)
	}
	if len(issues) != 2 {
		t.Fatalf("issues = %+v, want 2", issues)
	}
	bad := map[string]bool{}
	for _, is := range issues {
		bad[is.Name] = true
	}
	if !bad["job-1.json"] || !bad["job-2.json"] {
		t.Fatalf("flagged files = %v, want job-1.json and job-2.json", bad)
	}
}
