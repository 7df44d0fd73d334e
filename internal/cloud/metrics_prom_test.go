package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"medsen/internal/promexp"
)

// TestPrometheusMetricNamesArePinned is the rename gate: every exported
// family, with its exact type, must appear here. A dashboard or alert built
// on one of these names breaks silently if the name drifts, so changing this
// list is a deliberate act reviewed with the exporter change itself.
func TestPrometheusMetricNamesArePinned(t *testing.T) {
	want := map[string]string{
		"medsen_uploads_total":              promexp.TypeCounter,
		"medsen_upload_errors_total":        promexp.TypeCounter,
		"medsen_authentications_total":      promexp.TypeCounter,
		"medsen_auth_accepted_total":        promexp.TypeCounter,
		"medsen_jobs_enqueued_total":        promexp.TypeCounter,
		"medsen_jobs_rejected_total":        promexp.TypeCounter,
		"medsen_jobs_completed_total":       promexp.TypeCounter,
		"medsen_jobs_failed_total":          promexp.TypeCounter,
		"medsen_jobs_evicted_total":         promexp.TypeCounter,
		"medsen_jobs_recovered_total":       promexp.TypeCounter,
		"medsen_job_journal_errors_total":   promexp.TypeCounter,
		"medsen_job_evict_errors_total":     promexp.TypeCounter,
		"medsen_store_salvaged_total":       promexp.TypeCounter,
		"medsen_lease_expirations_total":    promexp.TypeCounter,
		"medsen_jobs_reclaimed_total":       promexp.TypeCounter,
		"medsen_jobs_poisoned_total":        promexp.TypeCounter,
		"medsen_rate_limited_total":         promexp.TypeCounter,
		"medsen_shed_total":                 promexp.TypeCounter,
		"medsen_dedup_hits_total":           promexp.TypeCounter,
		"medsen_dedup_journal_errors_total": promexp.TypeCounter,
		"medsen_auth_denied_total":          promexp.TypeCounter,
		"medsen_permission_denied_total":    promexp.TypeCounter,
		"medsen_audit_journal_errors_total": promexp.TypeCounter,
		"medsen_batch_requests_total":       promexp.TypeCounter,
		"medsen_batch_items_total":          promexp.TypeCounter,
		"medsen_batch_item_errors_total":    promexp.TypeCounter,
		"medsen_batch_rejected_total":       promexp.TypeCounter,
		"medsen_stored_analyses":            promexp.TypeGauge,
		"medsen_enrolled_users":             promexp.TypeGauge,
		"medsen_dedup_entries":              promexp.TypeGauge,
		"medsen_queue_depth":                promexp.TypeGauge,
		"medsen_queue_wait_seconds":         promexp.TypeGauge,
		"medsen_audit_records":              promexp.TypeGauge,
		"medsen_workers_active":             promexp.TypeGauge,
		"medsen_store_degraded":             promexp.TypeGauge,
	}
	var buf bytes.Buffer
	if err := writeMetricsProm(&buf, Metrics{}); err != nil {
		t.Fatalf("writeMetricsProm: %v", err)
	}
	fams, err := promexp.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, buf.String())
	}
	for name, typ := range want {
		f := fams[name]
		if f == nil {
			t.Errorf("family %s missing from the exposition", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %s has type %s, want %s", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("family %s has no HELP text", name)
		}
	}
	for name := range fams {
		if _, ok := want[name]; !ok {
			t.Errorf("unpinned family %s: add it here with its type (a rename breaks dashboards)", name)
		}
	}
}

// TestPrometheusValuesMatchSnapshot renders a snapshot whose every field
// holds a distinct value and finds each value in that field's own family
// (÷1000 in medsen_queue_wait_seconds), so no family reads another field.
// It also checks that Sub subtracts exactly the fields exposed as counters
// and keeps the gauges' later value.
func TestPrometheusValuesMatchSnapshot(t *testing.T) {
	var before, after Metrics
	bv, av := reflect.ValueOf(&before).Elem(), reflect.ValueOf(&after).Elem()
	for i := range av.NumField() {
		bv.Field(i).SetInt(int64(i + 1))
		av.Field(i).SetInt(int64(1000*(i+1) + 500))
	}
	var buf bytes.Buffer
	if err := writeMetricsProm(&buf, after); err != nil {
		t.Fatalf("writeMetricsProm: %v", err)
	}
	fams, err := promexp.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(fams) != av.NumField() {
		t.Fatalf("%d families for %d fields", len(fams), av.NumField())
	}
	diff := reflect.ValueOf(after.Sub(before))
	kinds := map[string]int{}
	for i := range av.NumField() {
		field := av.Type().Field(i)
		name, want := "medsen_"+field.Tag.Get("json"), float64(av.Field(i).Int())
		if field.Name == "QueueWaitMS" {
			name, want = "medsen_queue_wait_seconds", want/1e3
		}
		f := fams[name]
		if f == nil {
			f = fams[name+"_total"]
		}
		if f == nil || len(f.Samples) != 1 {
			t.Errorf("%s: no single-sample family %s or %s_total", field.Name, name, name)
			continue
		}
		if got := f.Samples[0].Value; got != want {
			t.Errorf("%s: family value %v, want %v", field.Name, got, want)
		}
		kinds[f.Type]++
		wantDiff := av.Field(i).Int()
		if f.Type == promexp.TypeCounter {
			wantDiff -= bv.Field(i).Int()
		}
		if got := diff.Field(i).Int(); got != wantDiff {
			t.Errorf("Sub: %s (%s) = %d, want %d", field.Name, f.Type, got, wantDiff)
		}
	}
	if kinds[promexp.TypeCounter] != 27 || kinds[promexp.TypeGauge] != 8 {
		t.Errorf("families by type = %v, want 27 counters and 8 gauges", kinds)
	}
}

// TestMetricsContentNegotiation pins the /metrics representation selection:
// JSON by default and on ?format=json, Prometheus on ?format=prometheus or a
// scraper-style Accept header, 400 on an unknown format. Every Prometheus
// response must parse line-for-line.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts, client := newTestServer(t)
	ctx := context.Background()

	// Store one analysis so the counters are non-zero.
	_, payload := testCapture(t, 411, 10)
	if _, err := client.SubmitCompressed(ctx, payload); err != nil {
		t.Fatalf("SubmitCompressed: %v", err)
	}

	get := func(path string, accept string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Default: the historical JSON document.
	resp, body := get("/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default Content-Type = %q", ct)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("default /metrics is not the JSON document: %v", err)
	}
	if m.Uploads != 1 {
		t.Fatalf("uploads = %d, want 1", m.Uploads)
	}

	// Explicit and negotiated Prometheus, each parsed line-for-line.
	for _, tc := range []struct{ path, accept string }{
		{"/metrics?format=prometheus", ""},
		{"/metrics", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1"},
		{"/metrics", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4"},
	} {
		resp, body = get(tc.path, tc.accept)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s (Accept %q): status %d", tc.path, tc.accept, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != promexp.ContentType {
			t.Fatalf("GET %s: Content-Type = %q", tc.path, ct)
		}
		fams, err := promexp.Parse(body)
		if err != nil {
			t.Fatalf("GET %s: exposition does not parse: %v\n%s", tc.path, err, body)
		}
		up := fams["medsen_uploads_total"]
		if up == nil || up.Samples[0].Value != 1 {
			t.Fatalf("GET %s: medsen_uploads_total = %+v", tc.path, up)
		}
	}

	// ?format=json forces JSON even under a scraper Accept header.
	resp, body = get("/metrics?format=json", "text/plain")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("?format=json is not JSON: %v", err)
	}

	// Unknown format: invalid_request.
	resp, _ = get("/metrics?format=xml", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?format=xml status %d, want 400", resp.StatusCode)
	}
}
