package phone

import (
	"bytes"
	"context"
	"testing"

	"medsen/internal/csvio"
	"medsen/internal/promexp"
)

// TestSubmitKeyedForcesDistinctAnalyses covers the loadgen seam: one payload
// submitted under two explicit keys must store two analyses, while the
// content-derived Submit path dedups a replay of the same bytes.
func TestSubmitKeyedForcesDistinctAnalyses(t *testing.T) {
	r := newRelay(t)
	ctx := context.Background()
	payload, err := csvio.CompressAcquisition(testAcquisition(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.SubmitKeyed(ctx, payload, "fleet-d0-c0")
	if err != nil {
		t.Fatalf("SubmitKeyed: %v", err)
	}
	b, err := r.SubmitKeyed(ctx, payload, "fleet-d0-c1")
	if err != nil {
		t.Fatalf("SubmitKeyed: %v", err)
	}
	if a.ID == b.ID {
		t.Fatalf("distinct keys deduped to one analysis %s", a.ID)
	}
	dup, err := r.SubmitKeyed(ctx, payload, "fleet-d0-c0")
	if err != nil {
		t.Fatalf("SubmitKeyed replay: %v", err)
	}
	if dup.ID != a.ID {
		t.Fatalf("replayed key stored a new analysis %s (want %s)", dup.ID, a.ID)
	}
	if m := r.Metrics(); m.LiveSubmits != 3 || m.SubmitFailures != 0 {
		t.Fatalf("relay metrics = %+v", m)
	}
}

// TestRelayMetricsWritePrometheus pins the relay-side metric families and
// the extra labels stamped on every sample.
func TestRelayMetricsWritePrometheus(t *testing.T) {
	m := RelayMetrics{LiveSubmits: 5, SubmitFailures: 2}
	var buf bytes.Buffer
	pw := promexp.NewWriter(&buf)
	m.WritePrometheus(pw, "device", "d7")
	if err := pw.Err(); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	fams, err := promexp.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, buf.String())
	}
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2:\n%s", len(fams), buf.String())
	}
	for name, want := range map[string]float64{
		"medsen_relay_live_submits_total":    5,
		"medsen_relay_submit_failures_total": 2,
	} {
		f := fams[name]
		if f == nil || f.Type != promexp.TypeCounter {
			t.Fatalf("family %s = %+v", name, f)
		}
		if f.Samples[0].Value != want || f.Samples[0].Labels["device"] != "d7" {
			t.Fatalf("family %s sample = %+v", name, f.Samples[0])
		}
	}
}
