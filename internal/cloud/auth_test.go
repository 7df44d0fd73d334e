package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
)

// authFixture is an authenticated test service with one key per role (two
// owner keys, so cross-tenant denial is testable).
type authFixture struct {
	svc *Service
	ts  *httptest.Server
	ks  *auth.Keystore
	log *audit.Log

	adminKey, clinicKey, aliceKey, bobKey string
}

// newAuthFixture builds an authenticated service. stateDir "" keeps the
// keystore and audit chain in memory; otherwise both persist under the
// standard medsen-cloud layout so restart tests can reopen them.
func newAuthFixture(t *testing.T, stateDir string) *authFixture {
	t.Helper()
	ksDir, auditPath := "", ""
	if stateDir != "" {
		ksDir = AuthDir(stateDir)
		auditPath = AuditLogPath(stateDir)
	}
	ks, err := auth.OpenKeystore(nil, ksDir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := audit.Open(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	f := &authFixture{ks: ks, log: log}
	issue := func(role auth.Role, subject string) string {
		_, secret, err := ks.Issue(role, subject)
		if err != nil {
			t.Fatal(err)
		}
		return secret
	}
	// Reuse secrets when the keystore was reopened over existing keys.
	if len(ks.Keys()) == 0 {
		f.adminKey = issue(auth.RoleAdmin, "")
		f.clinicKey = issue(auth.RoleClinic, "")
		f.aliceKey = issue(auth.RoleOwner, "alice")
		f.bobKey = issue(auth.RoleOwner, "bob")
	}
	f.svc, err = NewService(ServiceConfig{StateDir: stateDir, Keystore: ks, Audit: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.svc.Close)
	f.ts = httptest.NewServer(f.svc.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

// client returns an API client authenticated with the given secret.
func (f *authFixture) client(apiKey string) *Client {
	return &Client{BaseURL: f.ts.URL, APIKey: apiKey}
}

// doRaw performs one raw HTTP request with optional bearer key and returns
// the response (caller closes the body).
func (f *authFixture) doRaw(t *testing.T, apiKey, method, path string, body []byte) *http.Response {
	t.Helper()
	var reader *bytes.Reader
	if body == nil {
		reader = bytes.NewReader(nil)
	} else {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, f.ts.URL+path, reader)
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// status runs a request and returns only its status code.
func (f *authFixture) status(t *testing.T, apiKey, method, path string, body []byte) int {
	t.Helper()
	resp := f.doRaw(t, apiKey, method, path, body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestRBACMatrix drives every role against every endpoint class and asserts
// the expected status — the role model as one table. CI runs this test under
// -race.
func TestRBACMatrix(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()
	_, payload := testCapture(t, 301, 10)

	// Fixture objects: an analysis and a job owned by alice.
	alice := f.client(f.aliceKey)
	sub, err := alice.SubmitCompressedKeyed(ctx, payload, "matrix-an")
	if err != nil {
		t.Fatal(err)
	}
	job, err := alice.SubmitCompressedAsyncKeyed(ctx, payload, "matrix-job")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, alice, job.ID)

	const (
		ok        = 0 // any non-401/403 status: the request passed authorization
		forbidden = http.StatusForbidden
	)
	type row struct {
		name   string
		method string
		path   string
		body   []byte
		// expected authorization outcome per role.
		owner, ownerOther, clinic, admin int
	}
	enroll := func(user string) []byte {
		b, _ := json.Marshal(EnrollRequest{UserID: user, Identifier: map[string]int{}})
		return b
	}
	issueBody, _ := json.Marshal(IssueKeyRequest{Role: "clinic"})
	rows := []row{
		{"submit", http.MethodPost, "/api/v1/analyses", payload, ok, ok, ok, ok},
		{"list analyses", http.MethodGet, "/api/v1/analyses", nil, ok, ok, ok, ok},
		{"get analysis", http.MethodGet, "/api/v1/analyses/" + sub.ID, nil, ok, forbidden, ok, ok},
		{"authenticate analysis", http.MethodPost, "/api/v1/analyses/" + sub.ID + "/authenticate", nil, ok, forbidden, ok, ok},
		{"get job", http.MethodGet, "/api/v1/jobs/" + job.ID, nil, ok, forbidden, ok, ok},
		{"list jobs", http.MethodGet, "/api/v1/jobs", nil, ok, ok, ok, ok},
		{"enroll", http.MethodPost, "/api/v1/users", nil /* per-role body below */, forbidden, forbidden, ok, ok},
		{"user analyses (alice)", http.MethodGet, "/api/v1/users/alice/analyses", nil, ok, forbidden, ok, ok},
		{"issue key", http.MethodPost, "/api/v1/keys", issueBody, forbidden, forbidden, forbidden, ok},
		{"list keys", http.MethodGet, "/api/v1/keys", nil, forbidden, forbidden, forbidden, ok},
		{"revoke key", http.MethodDelete, "/api/v1/keys/key-999", nil, forbidden, forbidden, forbidden, ok},
		{"audit", http.MethodGet, "/api/v1/audit", nil, forbidden, forbidden, forbidden, ok},
	}
	roles := []struct {
		name string
		key  string
		pick func(r row) int
	}{
		{"owner-alice", f.aliceKey, func(r row) int { return r.owner }},
		{"owner-bob", f.bobKey, func(r row) int { return r.ownerOther }},
		{"clinic", f.clinicKey, func(r row) int { return r.clinic }},
		{"admin", f.adminKey, func(r row) int { return r.admin }},
	}
	for _, role := range roles {
		for _, r := range rows {
			t.Run(role.name+"/"+r.name, func(t *testing.T) {
				body := r.body
				if r.name == "enroll" {
					// Distinct user per role so permitted enrollments don't
					// collide on the duplicate-identifier check.
					body = enroll("enrollee-" + role.name)
				}
				got := f.status(t, role.key, r.method, r.path, body)
				want := role.pick(r)
				if want == forbidden {
					if got != forbidden {
						t.Fatalf("%s %s as %s = %d, want 403", r.method, r.path, role.name, got)
					}
					return
				}
				if got == http.StatusForbidden || got == http.StatusUnauthorized {
					t.Fatalf("%s %s as %s = %d, want authorized", r.method, r.path, role.name, got)
				}
				// "revoke key" on an unknown id must be 404 for admin — the
				// authorization passed, the object is simply absent.
				if r.name == "revoke key" && got != http.StatusNotFound {
					t.Fatalf("admin revoke of unknown key = %d, want 404", got)
				}
			})
		}
	}
}

// TestOwnerCrossTenantDenied is the acceptance criterion: with auth enabled,
// an owner key cannot read another user's analyses (403, not 404 — and never
// the data), and scope-filtered listings hide foreign rows entirely.
func TestOwnerCrossTenantDenied(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()
	_, payload := testCapture(t, 302, 10)

	sub, err := f.client(f.aliceKey).SubmitCompressedKeyed(ctx, payload, "alice-capture")
	if err != nil {
		t.Fatal(err)
	}

	// Bob's read of alice's analysis: 403 permission_denied via the sentinel.
	_, err = f.client(f.bobKey).GetReport(ctx, sub.ID)
	if !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("cross-tenant read: %v, want ErrPermissionDenied", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusForbidden || apiErr.Code != CodePermissionDenied {
		t.Fatalf("cross-tenant read error shape: %+v", apiErr)
	}

	// Alice reads her own.
	if _, err := f.client(f.aliceKey).GetReport(ctx, sub.ID); err != nil {
		t.Fatalf("own read: %v", err)
	}

	// Listings: alice sees her row, bob sees none — and the total reflects
	// the scoped count, not the global one.
	aliceRows, aliceTotal, err := f.client(f.aliceKey).ListAnalysesPage(ctx, Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(aliceRows) != 1 || aliceTotal != 1 || aliceRows[0].Owner != "alice" {
		t.Fatalf("alice listing: %d rows, total %d", len(aliceRows), aliceTotal)
	}
	bobRows, bobTotal, err := f.client(f.bobKey).ListAnalysesPage(ctx, Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bobRows) != 0 || bobTotal != 0 {
		t.Fatalf("bob listing leaks %d rows (total %d)", len(bobRows), bobTotal)
	}

	// Clinic sees everything.
	clinicRows, _, err := f.client(f.clinicKey).ListAnalysesPage(ctx, Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clinicRows) != 1 {
		t.Fatalf("clinic listing: %d rows", len(clinicRows))
	}

	// The denial was audited.
	denied := f.log.Snapshot("bob", "analysis.read")
	if len(denied) == 0 || denied[len(denied)-1].Outcome != audit.OutcomeDenied {
		t.Fatalf("denial not audited: %+v", denied)
	}
}

// TestOwnerJobScoping: async jobs carry their owner — visible to the
// submitting owner, hidden from other owners in listings, 403 on direct GET,
// and the stored analysis inherits the owner.
func TestOwnerJobScoping(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()
	_, payload := testCapture(t, 303, 10)

	alice := f.client(f.aliceKey)
	job, err := alice.SubmitCompressedAsyncKeyed(ctx, payload, "alice-job")
	if err != nil {
		t.Fatal(err)
	}
	if job.Owner != "alice" {
		t.Fatalf("job owner %q", job.Owner)
	}
	done := waitJob(t, alice, job.ID)

	if _, err := f.client(f.bobKey).GetJob(ctx, job.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("cross-tenant job read: %v", err)
	}
	bobJobs, _, err := f.client(f.bobKey).ListJobsPage(ctx, JobFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bobJobs) != 0 {
		t.Fatalf("bob sees %d foreign jobs", len(bobJobs))
	}

	// The analysis the job stored belongs to alice too.
	if _, err := f.client(f.bobKey).GetReport(ctx, done.AnalysisID); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("job-produced analysis readable cross-tenant: %v", err)
	}
	if _, err := alice.GetReport(ctx, done.AnalysisID); err != nil {
		t.Fatalf("owner read of job-produced analysis: %v", err)
	}
}

// TestUnauthenticated401: no key, a bogus key, and a revoked key all answer
// 401 unauthenticated with a WWW-Authenticate challenge and match the
// ErrUnauthenticated sentinel; anonymous infra endpoints stay open.
func TestUnauthenticated401(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()

	for name, key := range map[string]string{
		"no key":    "",
		"bogus key": "msk_" + strings.Repeat("ab", 32),
	} {
		resp := f.doRaw(t, key, http.MethodGet, "/api/v1/analyses", nil)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s: status %d, want 401", name, resp.StatusCode)
		}
		if c := resp.Header.Get("WWW-Authenticate"); !strings.Contains(c, "Bearer") {
			t.Fatalf("%s: WWW-Authenticate = %q", name, c)
		}
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != CodeUnauthenticated {
			t.Fatalf("%s: envelope %+v (%v)", name, env, err)
		}
		resp.Body.Close()
	}

	// The client surfaces the sentinel.
	_, err := (&Client{BaseURL: f.ts.URL}).ListAnalyses(ctx)
	if !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("client sentinel: %v", err)
	}

	// Revocation takes effect on the next request.
	_, secret, err := f.ks.Issue(auth.RoleClinic, "")
	if err != nil {
		t.Fatal(err)
	}
	c := f.client(secret)
	if _, err := c.ListAnalyses(ctx); err != nil {
		t.Fatalf("fresh key: %v", err)
	}
	keys := f.ks.Keys()
	if _, err := f.ks.Revoke(keys[len(keys)-1].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListAnalyses(ctx); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("revoked key: %v", err)
	}

	// Infra endpoints need no credentials.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if got := f.status(t, "", http.MethodGet, path, nil); got != http.StatusOK {
			t.Fatalf("GET %s anonymous = %d", path, got)
		}
	}

	// Auth failures were counted and audited.
	m := f.svc.Snapshot()
	if m.AuthDenied < 3 {
		t.Fatalf("AuthDenied = %d, want ≥3", m.AuthDenied)
	}
	if len(f.log.Snapshot("anonymous", "auth.login")) == 0 {
		t.Fatal("auth denials not audited")
	}
}

// TestAdminAuditPaging is the acceptance criterion: an admin key pages
// GET /api/v1/audit with limit/offset + X-Total-Count and filters by actor
// and action; non-admins get 403.
func TestAdminAuditPaging(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()
	_, payload := testCapture(t, 304, 10)

	// Generate trail traffic: a submit and reads by two actors.
	alice := f.client(f.aliceKey)
	sub, err := alice.SubmitCompressedKeyed(ctx, payload, "audit-an")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.GetReport(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client(f.bobKey).GetReport(ctx, sub.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Fatal("expected denial for trail traffic")
	}

	admin := f.client(f.adminKey)
	all, total, err := admin.AuditRecords(ctx, AuditFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if total != len(all) || total < 3 {
		t.Fatalf("audit total %d, rows %d", total, len(all))
	}
	if err := audit.Verify(all); err != nil {
		t.Fatalf("served chain fails verification: %v", err)
	}

	// Paging: two pages of 2 cover the head of the chain in order.
	page1, pTotal, err := admin.AuditRecords(ctx, AuditFilter{Page: Page{Limit: 2}})
	if err != nil {
		t.Fatal(err)
	}
	page2, _, err := admin.AuditRecords(ctx, AuditFilter{Page: Page{Limit: 2, Offset: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Each served read audits itself after snapshotting, so the trail grew
	// by exactly one record since the first fetch.
	if pTotal != total+1 || len(page1) != 2 {
		t.Fatalf("page totals: %d vs %d, page1 %d rows", pTotal, total, len(page1))
	}
	if page1[0].Seq != all[0].Seq || (len(page2) > 0 && page2[0].Seq != all[2].Seq) {
		t.Fatal("pages do not tile the chain in sequence order")
	}

	// Filters.
	byActor, _, err := admin.AuditRecords(ctx, AuditFilter{Actor: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range byActor {
		if r.Actor != "alice" {
			t.Fatalf("actor filter leaked %+v", r)
		}
	}
	if len(byActor) == 0 {
		t.Fatal("actor filter returned nothing")
	}
	byAction, _, err := admin.AuditRecords(ctx, AuditFilter{Action: "analysis.create"})
	if err != nil {
		t.Fatal(err)
	}
	if len(byAction) != 1 || byAction[0].Object != sub.ID {
		t.Fatalf("action filter: %+v", byAction)
	}

	// Non-admins are refused.
	if _, _, err := f.client(f.clinicKey).AuditRecords(ctx, AuditFilter{}); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("clinic audit read: %v", err)
	}
	if _, _, err := alice.AuditRecords(ctx, AuditFilter{}); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("owner audit read: %v", err)
	}
}

// TestSyncSubmitAuditsOutcomes: a sync submit is audited under
// analysis.create with the batch item vocabulary — stored, deduplicated
// (detail "dedup") and failed (detail: the error code) — including the
// resubmission of a subject-less clinic key, which shares the global key
// namespace with every other subject-less caller.
func TestSyncSubmitAuditsOutcomes(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()
	clinic := f.client(f.clinicKey)
	_, payload := testCapture(t, 305, 10)

	sub, err := clinic.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	again, err := clinic.SubmitCompressed(ctx, payload)
	if err != nil || again.ID != sub.ID {
		t.Fatalf("resubmission = %+v, %v; want a dedup to %s", again, err, sub.ID)
	}
	if _, err := clinic.SubmitCompressed(ctx, []byte("not a zip")); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("garbage submit: %v, want ErrInvalidRequest", err)
	}

	var got []string
	for _, r := range f.log.Snapshot("", "analysis.create") {
		got = append(got, r.Object+" "+r.Outcome+" "+r.Detail)
	}
	want := []string{
		sub.ID + " " + audit.OutcomeOK + " ",
		sub.ID + " " + audit.OutcomeOK + " dedup",
		" " + audit.OutcomeError + " " + CodeInvalidRequest,
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("analysis.create records = %q, want %q", got, want)
	}
}

// TestAuditChainPersistsAndRejectsTamper is the startup-verification
// acceptance criterion end to end: the trail survives a service restart,
// keeps chaining, and a flipped byte makes the next open fail.
func TestAuditChainPersistsAndRejectsTamper(t *testing.T) {
	stateDir := t.TempDir()
	f := newAuthFixture(t, stateDir)
	ctx := context.Background()
	_, payload := testCapture(t, 305, 10)
	if _, err := f.client(f.aliceKey).SubmitCompressedKeyed(ctx, payload, "persist-an"); err != nil {
		t.Fatal(err)
	}
	firstLen := f.log.Len()
	if firstLen == 0 {
		t.Fatal("no audit records written")
	}
	head := f.log.HeadHash()
	f.svc.Close()
	f.ts.Close()
	if err := f.log.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same state dir: the chain verifies and continues.
	log2, err := audit.Open(AuditLogPath(stateDir))
	if err != nil {
		t.Fatalf("reopen after clean shutdown: %v", err)
	}
	if log2.Len() != firstLen || log2.HeadHash() != head {
		t.Fatalf("reloaded chain: %d records (want %d)", log2.Len(), firstLen)
	}
	if _, err := log2.Append(audit.Record{Actor: "ops", Action: "audit.read", Outcome: audit.OutcomeOK}); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	// Tamper: flip one byte of the journaled chain → startup verification
	// must refuse it.
	path := AuditLogPath(stateDir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, []byte(`"actor":"alice"`))
	if idx < 0 {
		t.Fatal("no alice record to tamper with")
	}
	data[idx+len(`"actor":"`)] ^= 0x01
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := audit.Open(path); !errors.Is(err, audit.ErrTampered) {
		t.Fatalf("tampered chain opened: %v", err)
	}
}

// TestKeyLifecycleOverHTTP: an admin issues a key over the API, the key
// works immediately, listing shows it, and DELETE revokes it.
func TestKeyLifecycleOverHTTP(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()

	admin := f.client(f.adminKey)
	issued, err := admin.IssueKey(ctx, "owner", "carol")
	if err != nil {
		t.Fatal(err)
	}
	if issued.Secret == "" || issued.Role != "owner" || issued.Subject != "carol" {
		t.Fatalf("issued %+v", issued)
	}

	// The fresh key authenticates and is properly scoped.
	carol := f.client(issued.Secret)
	_, payload := testCapture(t, 306, 10)
	sub, err := carol.SubmitCompressedKeyed(ctx, payload, "carol-an")
	if err != nil {
		t.Fatalf("fresh key submit: %v", err)
	}
	if _, err := f.client(f.bobKey).GetReport(ctx, sub.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Fatal("carol's analysis readable by bob")
	}

	// Listing shows the key's metadata but never a secret or hash.
	resp := f.doRaw(t, f.adminKey, http.MethodGet, "/api/v1/keys", nil)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(raw), issued.Secret) || strings.Contains(string(raw), `"hash"`) {
		t.Fatal("key listing leaks secret material")
	}
	keys, total, err := admin.ListKeys(ctx, Page{})
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || len(keys) != 5 {
		t.Fatalf("key listing: %d keys, total %d, want 5", len(keys), total)
	}

	// Revoke over HTTP: the key stops working on its next request.
	revoked, err := admin.RevokeKey(ctx, issued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if revoked.RevokedAtUnix == 0 {
		t.Fatalf("revocation not stamped: %+v", revoked)
	}
	if _, err := carol.ListAnalyses(ctx); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("revoked key still works: %v", err)
	}

	// Issuing with a bad role is a 400, not a key.
	if _, err := admin.IssueKey(ctx, "root", ""); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("bad role: %v", err)
	}

	// The lifecycle is audited.
	if len(f.log.Snapshot("", "key.issue")) == 0 || len(f.log.Snapshot("", "key.revoke")) == 0 {
		t.Fatal("key lifecycle not audited")
	}
}

// TestKeyEndpointsWithoutAuth: with authentication disabled the key and
// audit resources simply do not exist (404), and every request remains
// anonymous full-access.
func TestKeyEndpointsWithoutAuth(t *testing.T) {
	_, ts, client := newTestServer(t)
	ctx := context.Background()
	if _, err := client.IssueKey(ctx, "admin", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("IssueKey without auth: %v", err)
	}
	if _, _, err := client.AuditRecords(ctx, AuditFilter{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("AuditRecords without auth: %v", err)
	}
	resp, err := http.Get(ts.URL + "/api/v1/analyses")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous listing = %d", resp.StatusCode)
	}
}

// TestDedupScopedPerTenant: the same Idempotency-Key from two different
// owners is two captures — one tenant's key can never resolve to another's
// analysis.
func TestDedupScopedPerTenant(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()
	_, payload := testCapture(t, 307, 10)

	subA, err := f.client(f.aliceKey).SubmitCompressedKeyed(ctx, payload, "shared-key")
	if err != nil {
		t.Fatal(err)
	}
	subB, err := f.client(f.bobKey).SubmitCompressedKeyed(ctx, payload, "shared-key")
	if err != nil {
		t.Fatal(err)
	}
	if subA.ID == subB.ID {
		t.Fatal("idempotency key resolved across tenants")
	}
	// Within one tenant the key still dedups.
	again, err := f.client(f.aliceKey).SubmitCompressedKeyed(ctx, payload, "shared-key")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != subA.ID {
		t.Fatalf("same-tenant dedup broken: %s vs %s", again.ID, subA.ID)
	}
}

// TestWithAuthPassthroughIdentity pins the no-auth hot path: without a
// keystore the middleware IS the inner handler — zero added wrapper, zero
// added allocations for every request the benchmarks measure.
func TestWithAuthPassthroughIdentity(t *testing.T) {
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	mux := http.NewServeMux()
	if h := svc.withAuth(mux); h != http.Handler(mux) {
		t.Fatal("withAuth wrapped the handler despite auth being disabled")
	}
	// And the principal lookup on a bare request allocates nothing.
	r := httptest.NewRequest(http.MethodGet, "/api/v1/analyses", nil)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = svc.principal(r)
	}); allocs > 0 {
		t.Fatalf("principal() allocates %.1f times per request without auth", allocs)
	}
}

// TestAuthServiceMetrics: the new counters surface through /metrics.
func TestAuthServiceMetrics(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()
	_, payload := testCapture(t, 308, 10)
	sub, err := f.client(f.aliceKey).SubmitCompressedKeyed(ctx, payload, "metrics-an")
	if err != nil {
		t.Fatal(err)
	}
	f.status(t, "", http.MethodGet, "/api/v1/analyses", nil) // 401
	_, _ = f.client(f.bobKey).GetReport(ctx, sub.ID)         // 403
	m := f.svc.Snapshot()
	if m.AuthDenied != 1 || m.PermissionDenied != 1 {
		t.Fatalf("AuthDenied=%d PermissionDenied=%d, want 1/1", m.AuthDenied, m.PermissionDenied)
	}
	if m.AuditRecords != f.log.Len() || m.AuditRecords == 0 {
		t.Fatalf("AuditRecords=%d, log has %d", m.AuditRecords, f.log.Len())
	}
	var wire map[string]any
	resp := f.doRaw(t, "", http.MethodGet, "/metrics", nil)
	err = json.NewDecoder(resp.Body).Decode(&wire)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"auth_denied", "permission_denied", "audit_journal_errors", "audit_records"} {
		if _, ok := wire[field]; !ok {
			t.Fatalf("/metrics lacks %q: %v", field, wire)
		}
	}
}

// TestAuditJournalErrorsCountsEachGap runs a service over an audit log
// whose file is closed, so every append fails. A store salvage at startup, a
// denied request and a reaper reclaim each leave one gap in the trail, and
// each must raise audit_journal_errors by exactly one whichever path
// audited it.
func TestAuditJournalErrorsCountsEachGap(t *testing.T) {
	stateDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(stateDir, "an-1.json"), []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	ks, err := auth.OpenKeystore(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	_, clinicKey, err := ks.Issue(auth.RoleClinic, "")
	if err != nil {
		t.Fatal(err)
	}
	_, workerKey, err := ks.Issue(auth.RoleWorker, "")
	if err != nil {
		t.Fatal(err)
	}
	log, err := audit.Open(filepath.Join(t.TempDir(), "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// A one-hour TTL keeps the background reaper from ticking during the
	// test; the reclaim below is driven by hand on a pinned clock.
	svc, ts, _ := newLeaseServer(t, ServiceConfig{
		StateDir: stateDir, Keystore: ks, Audit: log, LeaseTTL: time.Hour,
	})
	gaps := func() int64 { return svc.Snapshot().AuditJournalErrors }
	if m := svc.Snapshot(); m.StoreSalvaged != 1 || m.AuditJournalErrors != 1 {
		t.Fatalf("after the startup salvage: StoreSalvaged=%d AuditJournalErrors=%d, want 1/1",
			m.StoreSalvaged, m.AuditJournalErrors)
	}

	resp, err := http.Get(ts.URL + "/api/v1/analyses")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized || gaps() != 2 {
		t.Fatalf("denied request: status %d, AuditJournalErrors=%d, want 401 and 2", resp.StatusCode, gaps())
	}

	ctx := context.Background()
	advance := pinClock(svc)
	_, payload := testCapture(t, 321, 2)
	clinic := &Client{BaseURL: ts.URL, APIKey: clinicKey}
	if _, err := clinic.SubmitCompressedAsync(ctx, payload); err != nil {
		t.Fatal(err)
	}
	worker := &Client{BaseURL: ts.URL, APIKey: workerKey}
	if g, err := worker.AcquireJob(ctx, "w1"); err != nil || !g.Granted {
		t.Fatalf("acquire = %+v, %v", g, err)
	}
	advance(2 * time.Hour)
	before := gaps()
	svc.reapLeases()
	if m := svc.Snapshot(); m.JobsReclaimed != 1 || m.AuditJournalErrors != before+1 {
		t.Fatalf("reaper reclaim: JobsReclaimed=%d AuditJournalErrors=%d, want 1 and %d",
			m.JobsReclaimed, m.AuditJournalErrors, before+1)
	}
	if log.Len() != 0 {
		t.Fatalf("closed log holds %d records", log.Len())
	}
}

// TestUnownedObjectsHiddenFromOwners: analyses stored before auth was
// enabled (owner "") stay readable by clinic/admin but are invisible and
// forbidden to owner keys.
func TestUnownedObjectsHiddenFromOwners(t *testing.T) {
	stateDir := t.TempDir()
	// Phase 1: anonymous service stores an analysis.
	svc1, err := NewService(ServiceConfig{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	_, payload := testCapture(t, 309, 10)
	sub, err := (&Client{BaseURL: ts1.URL}).SubmitCompressed(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	svc1.Close()

	// Phase 2: same state dir, auth enabled.
	f := newAuthFixture(t, stateDir)
	ctx := context.Background()
	if _, err := f.client(f.aliceKey).GetReport(ctx, sub.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("owner read of pre-auth analysis: %v", err)
	}
	if _, err := f.client(f.clinicKey).GetReport(ctx, sub.ID); err != nil {
		t.Fatalf("clinic read of pre-auth analysis: %v", err)
	}
	rows, _, err := f.client(f.aliceKey).ListAnalysesPage(ctx, Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("pre-auth analysis leaked into owner listing: %+v", rows)
	}
}

// TestOwnerScopeSurvivesRestart: analysis and job ownership persists in the
// journals, so a restarted service still enforces tenant boundaries.
func TestOwnerScopeSurvivesRestart(t *testing.T) {
	stateDir := t.TempDir()
	f := newAuthFixture(t, stateDir)
	ctx := context.Background()
	_, payload := testCapture(t, 310, 10)
	sub, err := f.client(f.aliceKey).SubmitCompressedKeyed(ctx, payload, "restart-an")
	if err != nil {
		t.Fatal(err)
	}
	aliceKey, bobKey := f.aliceKey, f.bobKey
	f.svc.Close()
	f.ts.Close()
	f.log.Close()

	// Second service over the same state dir and keystore directory.
	ks, err := auth.OpenKeystore(nil, AuthDir(stateDir))
	if err != nil {
		t.Fatal(err)
	}
	log2, err := audit.Open(AuditLogPath(stateDir))
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	svc2, err := NewService(ServiceConfig{StateDir: stateDir, Keystore: ks, Audit: log2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	ts2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(ts2.Close)

	if _, err := (&Client{BaseURL: ts2.URL, APIKey: bobKey}).GetReport(ctx, sub.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("restart dropped the tenant boundary: %v", err)
	}
	if _, err := (&Client{BaseURL: ts2.URL, APIKey: aliceKey}).GetReport(ctx, sub.ID); err != nil {
		t.Fatalf("owner read after restart: %v", err)
	}
}
