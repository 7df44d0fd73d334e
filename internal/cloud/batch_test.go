package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"medsen/internal/audit"
)

// postBatch sends a raw batch request and decodes the response envelope.
func postBatch(t *testing.T, client *Client, req BatchRequest) (int, BatchResponse, errorEnvelope) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, client.BaseURL+"/api/v1/analyses:batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if client.APIKey != "" {
		httpReq.Header.Set("Authorization", "Bearer "+client.APIKey)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	var env errorEnvelope
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
	} else {
		_ = json.NewDecoder(resp.Body).Decode(&env)
	}
	return resp.StatusCode, out, env
}

// TestBatchSubmitStoresEveryItem: N distinct captures in one request store N
// analyses with per-item 201s, and the batch counters advance.
func TestBatchSubmitStoresEveryItem(t *testing.T) {
	svc, _, client := newTestServer(t)
	ctx := context.Background()

	var items []BatchSubmission
	for seed := uint64(501); seed < 504; seed++ {
		_, payload := testCapture(t, seed, 10)
		items = append(items, BatchSubmission{Payload: payload})
	}
	resp, err := client.SubmitBatch(ctx, items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if resp.Succeeded != 3 || resp.Failed != 0 {
		t.Fatalf("succeeded=%d failed=%d, want 3/0", resp.Succeeded, resp.Failed)
	}
	ids := map[string]bool{}
	for i, res := range resp.Results {
		if res.Status != http.StatusCreated {
			t.Fatalf("item %d status %d, want 201 (err %+v)", i, res.Status, res.Error)
		}
		if res.ID == "" || res.Report == nil {
			t.Fatalf("item %d missing id or report: %+v", i, res)
		}
		ids[res.ID] = true
	}
	if len(ids) != 3 {
		t.Fatalf("distinct ids = %d, want 3", len(ids))
	}
	list, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("stored analyses = %d, want 3", len(list))
	}
	m := svc.Snapshot()
	if m.BatchRequests != 1 || m.BatchItems != 3 || m.BatchItemErrors != 0 || m.BatchRejected != 0 {
		t.Fatalf("batch counters = %d/%d/%d/%d, want 1/3/0/0",
			m.BatchRequests, m.BatchItems, m.BatchItemErrors, m.BatchRejected)
	}
}

// TestBatchIntraBatchDuplicateDedups: the same payload twice in one batch
// resolves the second occurrence through the dedup index — one stored
// analysis, the duplicate answered 200 with the sibling's id.
func TestBatchIntraBatchDuplicateDedups(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()

	_, payload := testCapture(t, 511, 10)
	resp, err := client.SubmitBatch(ctx, []BatchSubmission{
		{Payload: payload}, {Payload: payload},
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if resp.Results[0].Status != http.StatusCreated {
		t.Fatalf("first occurrence status %d, want 201", resp.Results[0].Status)
	}
	if resp.Results[1].Status != http.StatusOK {
		t.Fatalf("duplicate status %d, want 200 (err %+v)", resp.Results[1].Status, resp.Results[1].Error)
	}
	if resp.Results[0].ID != resp.Results[1].ID {
		t.Fatalf("duplicate resolved to %s, want sibling's %s", resp.Results[1].ID, resp.Results[0].ID)
	}
	list, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("stored analyses = %d, want 1", len(list))
	}
}

// TestBatchMatchesSerialLoopAcrossGOMAXPROCS pins the batch to the serial
// item loop it replaced, whatever the analyzer count: one batch holding a
// fresh capture, a replay of a stored one, an undecodable payload, a repeat
// of the fresh capture, and a key whose undecodable first occurrence is
// followed by a valid repeat gives the same statuses, ids, reports, audit
// records and counters at GOMAXPROCS 1, 2 and 8.
func TestBatchMatchesSerialLoopAcrossGOMAXPROCS(t *testing.T) {
	reports := map[string]string{}
	capture := func(seed uint64) []byte {
		acq, payload := testCapture(t, seed, 10)
		report, err := Analyze(acq, DefaultAnalysisConfig())
		if err != nil {
			t.Fatal(err)
		}
		js, _ := json.Marshal(report)
		reports[string(payload)] = string(js)
		return payload
	}
	fresh, stored, late := capture(531), capture(532), capture(533)
	garbage := []byte("not a zip at all")
	items := []BatchSubmission{
		{Payload: fresh},
		{Payload: stored},
		{Payload: garbage},
		{Payload: fresh},
		{Payload: garbage, IdempotencyKey: "retried"},
		{Payload: late, IdempotencyKey: "retried"},
	}
	type outcome struct {
		status int
		id     string
		code   string
		report string
	}
	want := []outcome{
		{http.StatusCreated, "an-2", "", reports[string(fresh)]},
		{http.StatusOK, "an-1", "", reports[string(stored)]},
		{http.StatusBadRequest, "", CodeInvalidRequest, ""},
		{http.StatusOK, "an-2", "", reports[string(fresh)]},
		{http.StatusBadRequest, "", CodeInvalidRequest, ""},
		{http.StatusCreated, "an-3", "", reports[string(late)]},
	}
	// Object, outcome and detail of each record, in chain order.
	wantAudit := []string{
		"analysis.create an-1 ok ",
		"analysis.batch_item an-2 ok ",
		"analysis.batch_item an-1 ok dedup",
		"analysis.batch_item  error invalid_request",
		"analysis.batch_item an-2 ok dedup",
		"analysis.batch_item  error invalid_request",
		"analysis.batch_item an-3 ok ",
	}

	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			log, err := audit.Open("")
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewService(ServiceConfig{Audit: log})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(svc.Close)
			ts := httptest.NewServer(svc.Handler())
			t.Cleanup(ts.Close)
			client := &Client{BaseURL: ts.URL}
			ctx := context.Background()

			if sub, err := client.SubmitCompressed(ctx, stored); err != nil || sub.ID != "an-1" {
				t.Fatalf("storing the replayed capture: %+v, %v", sub, err)
			}
			resp, err := client.SubmitBatch(ctx, items)
			if err != nil {
				t.Fatalf("SubmitBatch: %v", err)
			}
			for i, r := range resp.Results {
				got := outcome{status: r.Status, id: r.ID}
				if r.Error != nil {
					got.code = r.Error.Code
				}
				if r.Report != nil {
					js, _ := json.Marshal(r.Report)
					got.report = string(js)
				}
				if r.Index != i || got != want[i] {
					t.Errorf("item %d: index %d, status %d, id %q, code %q, report matches %v; want status %d, id %q, code %q",
						i, r.Index, got.status, got.id, got.code, got.report == want[i].report, want[i].status, want[i].id, want[i].code)
				}
			}
			var chain []string
			for _, rec := range log.Snapshot("", "") {
				chain = append(chain, strings.Join([]string{rec.Action, rec.Object, rec.Outcome, rec.Detail}, " "))
			}
			if strings.Join(chain, "\n") != strings.Join(wantAudit, "\n") {
				t.Errorf("audit chain:\n%s\nwant:\n%s", strings.Join(chain, "\n"), strings.Join(wantAudit, "\n"))
			}
			m := svc.Snapshot()
			if m.Uploads != 3 || m.DedupHits != 2 || m.UploadErrors != 2 || m.BatchItemErrors != 2 {
				t.Errorf("Uploads %d, DedupHits %d, UploadErrors %d, BatchItemErrors %d; want 3, 2, 2, 2",
					m.Uploads, m.DedupHits, m.UploadErrors, m.BatchItemErrors)
			}
		})
	}
}

// TestBatchDedupsAgainstSingleSubmit: a batch item replaying a capture that
// already went through POST /api/v1/analyses dedups to the original analysis
// — the two endpoints share one idempotency index.
func TestBatchDedupsAgainstSingleSubmit(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()

	_, payload := testCapture(t, 512, 10)
	sub, err := client.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.SubmitBatch(ctx, []BatchSubmission{{Payload: payload}})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if resp.Results[0].Status != http.StatusOK || resp.Results[0].ID != sub.ID {
		t.Fatalf("replay item = %+v, want 200 with id %s", resp.Results[0], sub.ID)
	}
}

// TestBatchPoisonedItemIsolated: one undecodable payload fails its own slot
// and its siblings still store. The poisoned item must not take the batch (or
// the service) down with it.
func TestBatchPoisonedItemIsolated(t *testing.T) {
	svc, _, client := newTestServer(t)
	ctx := context.Background()

	_, good1 := testCapture(t, 521, 10)
	_, good2 := testCapture(t, 522, 10)
	resp, err := client.SubmitBatch(ctx, []BatchSubmission{
		{Payload: good1},
		{Payload: []byte("not a zip at all")},
		{Payload: good2},
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if resp.Succeeded != 2 || resp.Failed != 1 {
		t.Fatalf("succeeded=%d failed=%d, want 2/1", resp.Succeeded, resp.Failed)
	}
	for _, i := range []int{0, 2} {
		if resp.Results[i].Status != http.StatusCreated {
			t.Fatalf("sibling %d status %d, want 201 (err %+v)", i, resp.Results[i].Status, resp.Results[i].Error)
		}
	}
	bad := resp.Results[1]
	if bad.Status < 400 || bad.Error == nil {
		t.Fatalf("poisoned item = %+v, want a 4xx/5xx with error detail", bad)
	}
	list, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("stored analyses = %d, want 2", len(list))
	}
	if m := svc.Snapshot(); m.BatchItemErrors != 1 {
		t.Fatalf("BatchItemErrors = %d, want 1", m.BatchItemErrors)
	}
}

// TestBatchRejectsOversizedAndEmpty: more than MaxBatchItems items is a 413,
// zero items a 400, and both count as whole-batch rejections.
func TestBatchRejectsOversizedAndEmpty(t *testing.T) {
	svc, _, client := newTestServer(t)

	req := BatchRequest{Items: make([]BatchItem, MaxBatchItems+1)}
	for i := range req.Items {
		req.Items[i].Payload = []byte{byte(i)}
	}
	status, _, env := postBatch(t, client, req)
	if status != http.StatusRequestEntityTooLarge || env.Error.Code != CodePayloadTooLarge {
		t.Fatalf("oversized batch: status %d code %q, want 413 %s", status, env.Error.Code, CodePayloadTooLarge)
	}

	status, _, env = postBatch(t, client, BatchRequest{})
	if status != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest {
		t.Fatalf("empty batch: status %d code %q, want 400 %s", status, env.Error.Code, CodeInvalidRequest)
	}

	if m := svc.Snapshot(); m.BatchRejected != 2 || m.BatchRequests != 0 {
		t.Fatalf("rejected=%d requests=%d, want 2/0", m.BatchRejected, m.BatchRequests)
	}
}

// TestBatchMixedTenantRejected: items resolving to two different subjects are
// rejected whole with 400 before any item runs, and a subject-scoped key
// naming a foreign tenant is a 403 — even though RBAC alone would allow the
// create.
func TestBatchMixedTenantRejected(t *testing.T) {
	f := newAuthFixture(t, "")
	_, payload := testCapture(t, 531, 10)

	// Clinic key, items for alice and bob in one batch: 400, nothing stored.
	clinic := f.client(f.clinicKey)
	status, _, env := postBatch(t, clinic, BatchRequest{Items: []BatchItem{
		{Owner: "alice", Payload: payload},
		{Owner: "bob", Payload: payload},
	}})
	if status != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest {
		t.Fatalf("mixed-tenant batch: status %d code %q, want 400 %s", status, env.Error.Code, CodeInvalidRequest)
	}

	// Alice's own key naming bob: 403.
	alice := f.client(f.aliceKey)
	status, _, env = postBatch(t, alice, BatchRequest{Items: []BatchItem{
		{Owner: "bob", Payload: payload},
	}})
	if status != http.StatusForbidden || env.Error.Code != CodePermissionDenied {
		t.Fatalf("foreign-tenant batch: status %d code %q, want 403 %s", status, env.Error.Code, CodePermissionDenied)
	}
	list, err := f.client(f.adminKey).ListAnalyses(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("rejected batches stored %d analyses, want 0", len(list))
	}
	if m := f.svc.Snapshot(); m.BatchRejected != 2 {
		t.Fatalf("BatchRejected = %d, want 2", m.BatchRejected)
	}
}

// TestBatchScopedKeyDedupsWithSingleSubmit: a tenant's batch item and their
// single submission of the same capture share one scoped dedup key, so the
// batch replay answers the original analysis instead of storing a second one
// under a differently scoped key.
func TestBatchScopedKeyDedupsWithSingleSubmit(t *testing.T) {
	f := newAuthFixture(t, "")
	ctx := context.Background()
	_, payload := testCapture(t, 532, 10)

	alice := f.client(f.aliceKey)
	sub, err := alice.SubmitCompressed(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := alice.SubmitBatch(ctx, []BatchSubmission{{Payload: payload}})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if resp.Results[0].Status != http.StatusOK || resp.Results[0].ID != sub.ID {
		t.Fatalf("batch replay = %+v, want 200 with id %s", resp.Results[0], sub.ID)
	}
}

// TestBatchWeighsRateLimit: a batch charges its item count against the
// per-client token bucket, so a bucket with room for one single submit still
// rejects a three-item batch — and the clamped charge means a full bucket
// always admits a maximum-size batch eventually.
func TestBatchWeighsRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newRateLimiter(1, 3, func() time.Time { return now })

	if ok, _ := l.allowN("c", 3); !ok {
		t.Fatal("full bucket must admit a burst-sized batch")
	}
	if ok, wait := l.allowN("c", 3); ok || wait <= 0 {
		t.Fatalf("empty bucket admitted a batch (wait %v)", wait)
	}
	// One token refills: a single submit passes, a 3-item batch still waits.
	now = now.Add(time.Second)
	if ok, _ := l.allowN("c", 3); ok {
		t.Fatal("one token must not admit a 3-item batch")
	}
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("one refilled token must admit a single submit")
	}
	// A batch larger than the burst is clamped to the burst, not rejected
	// forever.
	now = now.Add(time.Hour)
	if ok, _ := l.allowN("c", 50); !ok {
		t.Fatal("over-burst batch must be clamped to the bucket capacity and admitted")
	}
}

// TestBatchDuplicateStormExactlyOnce: many concurrent batches carrying the
// same captures must store each capture exactly once. Losers of a claim race
// answer 200 (dedup) or 409 (in flight, resolved by retry) — never a second
// 201 for the same capture.
func TestBatchDuplicateStormExactlyOnce(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()

	const captures = 4
	var items []BatchSubmission
	for seed := uint64(541); seed < 541+captures; seed++ {
		_, payload := testCapture(t, seed, 10)
		items = append(items, BatchSubmission{Payload: payload})
	}

	const storm = 6
	created := make([]int64, captures) // 201s per capture index, across the storm
	var mu sync.Mutex
	idsByCapture := make([]map[string]bool, captures)
	for i := range idsByCapture {
		idsByCapture[i] = map[string]bool{}
	}
	var wg sync.WaitGroup
	errs := make(chan error, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Retry until every item resolves: a 409 means a sibling holds
			// the claim right now; its completion turns the retry into a 200.
			pendingIdx := make([]int, captures)
			pending := make([]BatchSubmission, captures)
			copy(pending, items)
			for i := range pendingIdx {
				pendingIdx[i] = i
			}
			for attempt := 0; len(pending) > 0; attempt++ {
				if attempt > 50 {
					errs <- fmt.Errorf("items still unresolved after %d attempts", attempt)
					return
				}
				resp, err := client.SubmitBatch(ctx, pending)
				if err != nil {
					errs <- err
					return
				}
				var nextIdx []int
				var next []BatchSubmission
				for _, res := range resp.Results {
					ci := pendingIdx[res.Index]
					switch {
					case res.Status == http.StatusCreated:
						mu.Lock()
						created[ci]++
						idsByCapture[ci][res.ID] = true
						mu.Unlock()
					case res.Status == http.StatusOK:
						mu.Lock()
						idsByCapture[ci][res.ID] = true
						mu.Unlock()
					case res.Error != nil && res.Error.Code == CodeDuplicateInFlight:
						nextIdx = append(nextIdx, ci)
						next = append(next, pending[res.Index])
					default:
						errs <- fmt.Errorf("capture %d: unexpected item result %+v", ci, res)
						return
					}
				}
				pendingIdx, pending = nextIdx, next
				if len(pending) > 0 {
					time.Sleep(10 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for ci := 0; ci < captures; ci++ {
		if created[ci] != 1 {
			t.Errorf("capture %d stored %d times, want exactly once", ci, created[ci])
		}
		if len(idsByCapture[ci]) != 1 {
			t.Errorf("capture %d resolved to %d distinct ids: %v", ci, len(idsByCapture[ci]), idsByCapture[ci])
		}
	}
	list, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != captures {
		t.Fatalf("stored analyses = %d, want %d", len(list), captures)
	}
}

// FuzzBatchRequest sends arbitrary bodies to the batch handler of a
// MemStore-backed service. The handler must never panic and must answer 200,
// 400 or 413; an admitted batch answers exactly one result per item, in
// item order.
func FuzzBatchRequest(f *testing.F) {
	svc, err := NewService(ServiceConfig{Store: NewMemStore(), Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Close)
	handler := svc.Handler()

	_, payload := testCapture(f, 901, 0.05)
	valid, err := json.Marshal(BatchRequest{Items: []BatchItem{
		{Payload: payload},
		{Payload: payload},
		{IdempotencyKey: "k", Payload: []byte("not a zip")},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte(`{"items":[{"payload":"AAAA"},{"owner":"x","payload":"AAAA"}]}`))
	f.Add([]byte(`{"items":[` + strings.Repeat(`{},`, MaxBatchItems) + `{}]}`))
	f.Add([]byte(`{"items":[{"idempotency_key":"` + strings.Repeat("k", 201) + `","payload":"AAAA"}]}`))
	f.Add([]byte("not json"))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/analyses:batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		// The handler decodes the first JSON value of the body; so does this.
		var req BatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable 200 response: %v", err)
		}
		if len(resp.Results) != len(req.Items) || resp.Succeeded+resp.Failed != len(req.Items) {
			t.Fatalf("%d items answered %d results (%d ok, %d failed)",
				len(req.Items), len(resp.Results), resp.Succeeded, resp.Failed)
		}
		for i, r := range resp.Results {
			if r.Index != i {
				t.Fatalf("result %d carries index %d", i, r.Index)
			}
		}
	})
}
