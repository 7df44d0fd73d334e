package cloud

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"medsen/internal/beads"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/faultinject"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server, *Client) {
	t.Helper()
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return svc, ts, &Client{BaseURL: ts.URL}
}

func TestServiceHealth(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status %d", resp.StatusCode)
	}
}

func TestSubmitAndFetchAnalysis(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()

	s := quietSensor()
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 200,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 60}, drbg.NewFromSeed(71))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.SubmitAcquisition(ctx, res.Acquisition)
	if err != nil {
		t.Fatalf("SubmitAcquisition: %v", err)
	}
	if sub.ID == "" {
		t.Fatal("empty analysis id")
	}
	if sub.Report.PeakCount == 0 {
		t.Fatal("no peaks detected server-side")
	}
	got, err := client.GetReport(ctx, sub.ID)
	if err != nil {
		t.Fatalf("GetReport: %v", err)
	}
	if got.PeakCount != sub.Report.PeakCount {
		t.Fatalf("stored report differs: %d vs %d", got.PeakCount, sub.Report.PeakCount)
	}
}

func TestGetUnknownAnalysis(t *testing.T) {
	_, _, client := newTestServer(t)
	if _, err := client.GetReport(context.Background(), "an-999"); err == nil {
		t.Fatal("expected 404 error")
	}
}

func TestSubmitRejectsGarbage(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/analyses", "application/zip",
		strings.NewReader("not a zip"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestSubmitRejectsBrokenSampleClock pins that a capture whose time column
// cannot give a sample rate — repeated, decreasing or non-finite times — or
// that carries a non-finite sample is refused as invalid_request and stores
// nothing, instead of being analyzed into a report with a zero or NaN
// duration.
func TestSubmitRejectsBrokenSampleClock(t *testing.T) {
	svc, err := NewService(ServiceConfig{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	// Two seconds of a flat 450 Hz capture, long enough to analyze, with
	// the time or sample of row i written by the case.
	capture := func(timeAt func(i int) string, sampleAt func(i int) string) []byte {
		csv := []byte("time_s,ch_500000Hz\n")
		for i := 0; i < 900; i++ {
			csv = fmt.Appendf(csv, "%s,%s\n", timeAt(i), sampleAt(i))
		}
		return csv
	}
	clock := func(i int) string { return fmt.Sprint(float64(i) / 450) }
	flat := func(int) string { return "1" }
	for _, tc := range []struct {
		name string
		csv  []byte
	}{
		{"repeated time", capture(func(int) string { return "0" }, flat)},
		{"decreasing time", capture(func(i int) string { return fmt.Sprint(float64(-i) / 450) }, flat)},
		{"NaN time", capture(func(i int) string {
			if i == 899 {
				return "NaN"
			}
			return clock(i)
		}, flat)},
		{"NaN sample", capture(clock, func(i int) string {
			if i == 450 {
				return "NaN"
			}
			return "1"
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			zw := zip.NewWriter(&buf)
			f, err := zw.Create(csvio.MeasurementsFileName)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.csv); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			before := svc.Snapshot()
			resp, err := http.Post(ts.URL+"/api/v1/analyses", "application/zip", &buf)
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || env.Error.Code != CodeInvalidRequest {
				t.Fatalf("status %d, code %q (decode err %v); want 400 %s",
					resp.StatusCode, env.Error.Code, err, CodeInvalidRequest)
			}
			after := svc.Snapshot()
			if after.Uploads != before.Uploads || after.StoredAnalyses != before.StoredAnalyses {
				t.Fatalf("uploads %d → %d, stored %d → %d; want both unchanged",
					before.Uploads, after.Uploads, before.StoredAnalyses, after.StoredAnalyses)
			}
		})
	}
}

func TestEnrollAndAuthenticateOverHTTP(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()

	id := beads.Identifier{microfluidic.TypeBead358: 2, microfluidic.TypeBead780: 4}
	if err := client.Enroll(ctx, "alice", id); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	// Duplicate identifier for another user → 409.
	if err := client.Enroll(ctx, "mallory", id); err == nil {
		t.Fatal("expected conflict for duplicate identifier")
	}

	s := quietSensor()
	alphabet := beads.DefaultAlphabet()
	blood := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 1500,
	})
	mixed, err := alphabet.MixedSample(id, blood)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Acquire(sensor.AcquireConfig{Sample: mixed, DurationS: 240}, drbg.NewFromSeed(73))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.SubmitAcquisition(ctx, res.Acquisition)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := client.Authenticate(ctx, sub.ID)
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}
	if !auth.Authenticated || auth.UserID != "alice" {
		t.Fatalf("auth = %+v", auth)
	}
	// The analysis is now linked to alice's account.
	ids, err := client.UserAnalyses(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != sub.ID {
		t.Fatalf("user analyses = %v, want [%s]", ids, sub.ID)
	}
}

// failingWriteFS fails every WriteFile while armed — a toggleable fault the
// seeded FaultyFS cannot express (the setup writes must succeed, then the
// one write under test must fail, then a retry must succeed again).
type failingWriteFS struct {
	faultinject.OSFS
	fail atomic.Bool
}

func (f *failingWriteFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if f.fail.Load() {
		return errors.New("injected write failure")
	}
	return f.OSFS.WriteFile(name, data, perm)
}

// WriteFileSync must fail alongside WriteFile: the embedded OSFS satisfies
// faultinject.SyncFS, and the disk store prefers the fsync path, so an
// unarmed override here would let durable writes sneak past the fault.
func (f *failingWriteFS) WriteFileSync(name string, data []byte, perm fs.FileMode) error {
	if f.fail.Load() {
		return errors.New("injected write failure")
	}
	return f.OSFS.WriteFileSync(name, data, perm)
}

// TestAuthenticatePersistFailureLeavesNoGhostLink is the regression test for
// the persist-then-commit violation in handleAuthenticate: the old code
// linked the analysis to the user in memory first and persisted second, so a
// failed write answered 500 while the link lived on in memory — served from
// /users/{id}/analyses until a restart silently dropped it. A failed persist
// must leave no trace, and a retry once the disk recovers must succeed.
func TestAuthenticatePersistFailureLeavesNoGhostLink(t *testing.T) {
	ffs := &failingWriteFS{}
	svc, err := NewService(ServiceConfig{StateDir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	id := beads.Identifier{microfluidic.TypeBead358: 2, microfluidic.TypeBead780: 4}
	if err := client.Enroll(ctx, "alice", id); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	mixed, err := beads.DefaultAlphabet().MixedSample(id, microfluidic.NewSample(10,
		map[microfluidic.Type]float64{microfluidic.TypeBloodCell: 1500}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := quietSensor().Acquire(sensor.AcquireConfig{Sample: mixed, DurationS: 240}, drbg.NewFromSeed(73))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.SubmitAcquisition(ctx, res.Acquisition)
	if err != nil {
		t.Fatal(err)
	}

	// Disk goes read-only exactly when authentication tries to link.
	ffs.fail.Store(true)
	_, err = client.Authenticate(ctx, sub.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("authenticate with failing disk: err = %v, want 500", err)
	}

	// No ghost: the in-memory record and the per-user index are untouched.
	svc.mu.RLock()
	userID := svc.analyses[sub.ID].UserID
	linked := len(svc.byUser["alice"])
	svc.mu.RUnlock()
	if userID != "" || linked != 0 {
		t.Fatalf("failed persist left a ghost link: UserID=%q byUser=%d", userID, linked)
	}
	if ids, err := client.UserAnalyses(ctx, "alice"); err != nil || len(ids) != 0 {
		t.Fatalf("user listing after failed persist = %v, %v; want empty", ids, err)
	}

	// Disk recovers: the same authenticate call now lands, and the link is
	// durable — a restart from the same state dir still serves it.
	ffs.fail.Store(false)
	authRes, err := client.Authenticate(ctx, sub.ID)
	if err != nil || !authRes.Authenticated || authRes.UserID != "alice" {
		t.Fatalf("retry after recovery: %+v, %v", authRes, err)
	}
	if ids, err := client.UserAnalyses(ctx, "alice"); err != nil || len(ids) != 1 || ids[0] != sub.ID {
		t.Fatalf("user listing after recovery = %v, %v; want [%s]", ids, err, sub.ID)
	}
}

// TestLinkAnalysisUserMigration: re-linking an analysis to a different user
// (the identifier was re-enrolled to someone else) must move it between
// byUser listings — the old code appended to the new user but never removed
// the old entry, so the previous user kept the analysis in their account
// forever. Driven through the helper directly because AuthenticateReport is
// deterministic: one capture cannot authenticate as two users over HTTP.
func TestLinkAnalysisUserMigration(t *testing.T) {
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	stored := &storedAnalysis{}
	svc.mu.Lock()
	defer svc.mu.Unlock()

	if err := svc.linkAnalysisUserLocked("an-1", stored, "alice"); err != nil {
		t.Fatal(err)
	}
	if stored.UserID != "alice" || len(svc.byUser["alice"]) != 1 {
		t.Fatalf("first link: UserID=%q byUser=%v", stored.UserID, svc.byUser)
	}
	// Re-authenticating as the same user is a no-op, not a duplicate entry.
	if err := svc.linkAnalysisUserLocked("an-1", stored, "alice"); err != nil {
		t.Fatal(err)
	}
	if len(svc.byUser["alice"]) != 1 {
		t.Fatalf("same-user re-link duplicated the entry: %v", svc.byUser["alice"])
	}
	// Migration: bob gains the analysis, alice loses it (and her emptied
	// key disappears rather than lingering as a zombie entry).
	if err := svc.linkAnalysisUserLocked("an-1", stored, "bob"); err != nil {
		t.Fatal(err)
	}
	if stored.UserID != "bob" {
		t.Fatalf("UserID = %q, want bob", stored.UserID)
	}
	if ids, ok := svc.byUser["alice"]; ok {
		t.Fatalf("alice still lists the migrated analysis: %v", ids)
	}
	if ids := svc.byUser["bob"]; len(ids) != 1 || ids[0] != "an-1" {
		t.Fatalf("bob's listing = %v, want [an-1]", ids)
	}
}

func TestAuthenticateUnknownAnalysis(t *testing.T) {
	_, _, client := newTestServer(t)
	if _, err := client.Authenticate(context.Background(), "an-404"); err == nil {
		t.Fatal("expected error")
	}
}

func TestEnrollValidationOverHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, body := range []string{
		`{"user_id":"","identifier":{"bead-3.58um":1}}`,
		`{"user_id":"u","identifier":{"unobtainium":1}}`,
		`{"user_id":"u","identifier":{}}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/users", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Errorf("body %q accepted with status %d", body, resp.StatusCode)
		}
	}
}

func TestUserAnalysesEmptyForUnknown(t *testing.T) {
	_, _, client := newTestServer(t)
	ids, err := client.UserAnalyses(context.Background(), "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("expected no analyses, got %v", ids)
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(ServiceConfig{FlowUlPerMin: -1}); err == nil {
		t.Fatal("expected error for negative flow")
	}
}

func TestListAnalyses(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()

	empty, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("expected empty listing, got %v", empty)
	}

	s := quietSensor()
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 30}, drbg.NewFromSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		// Distinct keys: each loop iteration models a separate capture that
		// happens to carry identical bytes, not a retry of one capture.
		sub, err := client.SubmitAcquisitionKeyed(ctx, res.Acquisition, fmt.Sprintf("list-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	got, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("listed %d analyses, want 3", len(got))
	}
	for i, summary := range got {
		if summary.ID != ids[i] {
			t.Fatalf("listing order: got %s at %d, want %s", summary.ID, i, ids[i])
		}
		if summary.PeakCount == 0 || summary.DurationS == 0 {
			t.Fatalf("incomplete summary: %+v", summary)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	svc, ts, client := newTestServer(t)
	ctx := context.Background()

	s := quietSensor()
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 30}, drbg.NewFromSeed(79))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitAcquisition(ctx, res.Acquisition); err != nil {
		t.Fatal(err)
	}
	// A bad upload bumps the error counter.
	resp, err := http.Post(ts.URL+"/api/v1/analyses", "application/zip", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	m := svc.Snapshot()
	if m.Uploads != 1 || m.UploadErrors != 1 || m.StoredAnalyses != 1 {
		t.Fatalf("metrics = %+v", m)
	}

	// The HTTP endpoint serves the same counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire Metrics
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Uploads != 1 || wire.UploadErrors != 1 {
		t.Fatalf("wire metrics = %+v", wire)
	}
}

func TestClientRetriesSafeRequests(t *testing.T) {
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inner := svc.Handler()
	var fails atomic.Int32
	fails.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && fails.Load() > 0 {
			fails.Add(-1)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	client := &Client{
		BaseURL: ts.URL,
		Retry:   &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond},
	}
	ctx := context.Background()

	s := quietSensor()
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 30}, drbg.NewFromSeed(83))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.SubmitAcquisition(ctx, res.Acquisition)
	if err != nil {
		t.Fatalf("submit (no retry needed): %v", err)
	}
	// The first two GETs 503; the retry policy rides them out.
	if _, err := client.GetReport(ctx, sub.ID); err != nil {
		t.Fatalf("GetReport with retries: %v", err)
	}
	if fails.Load() != 0 {
		t.Fatalf("retries not consumed: %d left", fails.Load())
	}

	// Non-retryable statuses fail immediately.
	if _, err := client.GetReport(ctx, "an-404"); err == nil {
		t.Fatal("404 should not be retried into success")
	}
}

func TestClientRetryHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	client := &Client{
		BaseURL: ts.URL,
		Retry:   &RetryPolicy{MaxAttempts: 50, BaseDelay: 50 * time.Millisecond},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.GetReport(ctx, "an-1")
	if err == nil {
		t.Fatal("expected failure")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("retry loop ignored context cancellation")
	}
}

func TestErrorEnvelopeShape(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/analyses/an-999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if env.Error.Code != CodeNotFound || env.Error.Message == "" {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestClientDecodesTypedErrors(t *testing.T) {
	_, ts, client := newTestServer(t)
	ctx := context.Background()

	if _, err := client.GetReport(ctx, "an-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetReport err = %v, want ErrNotFound", err)
	}
	// Garbage sync upload → invalid_request.
	resp, err := http.Post(ts.URL+"/api/v1/analyses", "application/zip", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := client.SubmitCompressed(ctx, []byte("junk")); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("SubmitCompressed err = %v, want ErrInvalidRequest", err)
	}
	// Duplicate enrollment → conflict.
	id := beads.Identifier{microfluidic.TypeBead358: 1}
	if err := client.Enroll(ctx, "u1", id); err != nil {
		t.Fatal(err)
	}
	if err := client.Enroll(ctx, "u2", id); !errors.Is(err, ErrConflict) {
		t.Fatalf("Enroll err = %v, want ErrConflict", err)
	}
	// An ErrNotFound error must not match the other sentinels.
	_, err = client.GetReport(ctx, "an-999")
	if errors.Is(err, ErrConflict) || errors.Is(err, ErrQueueFull) {
		t.Fatalf("err %v matches unrelated sentinels", err)
	}
}

func TestListAnalysesPagination(t *testing.T) {
	_, ts, client := newTestServer(t)
	ctx := context.Background()
	s := quietSensor()
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 20}, drbg.NewFromSeed(87))
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for i := 0; i < 5; i++ {
		sub, err := client.SubmitAcquisitionKeyed(ctx, res.Acquisition, fmt.Sprintf("page-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, sub.ID)
	}

	page, total, err := client.ListAnalysesPage(ctx, Page{Limit: 2, Offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if len(page) != 2 || page[0].ID != all[1] || page[1].ID != all[2] {
		t.Fatalf("page = %+v", page)
	}
	// Offset past the end → empty page, total intact.
	page, total, err = client.ListAnalysesPage(ctx, Page{Limit: 2, Offset: 10})
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || len(page) != 0 {
		t.Fatalf("past-end page = %v total %d", page, total)
	}
	// Bad parameters → 400 invalid_request.
	resp, err := http.Get(ts.URL + "/api/v1/analyses?limit=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=-1 status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/analyses?offset=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("offset=x status %d, want 400", resp.StatusCode)
	}
}

func TestUserAnalysesPagination(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()

	id := beads.Identifier{microfluidic.TypeBead358: 2, microfluidic.TypeBead780: 4}
	if err := client.Enroll(ctx, "alice", id); err != nil {
		t.Fatal(err)
	}
	s := quietSensor()
	alphabet := beads.DefaultAlphabet()
	blood := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 1500,
	})
	mixed, err := alphabet.MixedSample(id, blood)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Acquire(sensor.AcquireConfig{Sample: mixed, DurationS: 240}, drbg.NewFromSeed(73))
	if err != nil {
		t.Fatal(err)
	}
	var linked []string
	for i := 0; i < 3; i++ {
		sub, err := client.SubmitAcquisitionKeyed(ctx, res.Acquisition, fmt.Sprintf("user-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Authenticate(ctx, sub.ID); err != nil {
			t.Fatal(err)
		}
		linked = append(linked, sub.ID)
	}
	sort.Strings(linked)

	page, total, err := client.UserAnalysesPage(ctx, "alice", Page{Limit: 2, Offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || len(page) != 2 {
		t.Fatalf("page %v total %d", page, total)
	}
	if page[0] != linked[1] || page[1] != linked[2] {
		t.Fatalf("page = %v, linked = %v", page, linked)
	}
}

func TestRetryBackoffJitterBounds(t *testing.T) {
	p := &RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	// rnd pinned to 0 → pure exponential with cap.
	zero := func() float64 { return 0 }
	for attempt, want := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		4: 800 * time.Millisecond,
		5: time.Second, // capped
		9: time.Second,
	} {
		if got := p.backoff(attempt, zero); got != want {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
	// rnd pinned to just-under-1 → delay + 20% default jitter, still capped
	// relative to the base delay.
	almostOne := func() float64 { return 0.999999 }
	got := p.backoff(1, almostOne)
	if got <= 100*time.Millisecond || got > 120*time.Millisecond {
		t.Errorf("jittered backoff(1) = %v, want (100ms, 120ms]", got)
	}
	// Explicit jitter fraction.
	p.Jitter = 0.5
	got = p.backoff(1, almostOne)
	if got <= 100*time.Millisecond || got > 150*time.Millisecond {
		t.Errorf("jitter=0.5 backoff(1) = %v, want (100ms, 150ms]", got)
	}
	// Negative jitter disables it.
	p.Jitter = -1
	if got := p.backoff(1, almostOne); got != 100*time.Millisecond {
		t.Errorf("jitter<0 backoff(1) = %v, want exactly 100ms", got)
	}
}
