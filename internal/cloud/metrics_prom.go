package cloud

// Prometheus rendering of the service metrics. GET /metrics has served a
// JSON Metrics document since PR 1; fleet-scale operations (ROADMAP item 4)
// need the same counters in a form Prometheus and its dashboards scrape
// natively. The JSON document stays the default for existing tooling; a
// scraper gets the text exposition format either explicitly
// (?format=prometheus) or by content negotiation on its Accept header.
//
// Naming scheme (see DESIGN.md §7): every family is medsen_ + the field's
// JSON name, counters end in _total, gauges are bare nouns, and a _ms
// duration is converted to base seconds (queue_wait_ms →
// medsen_queue_wait_seconds). The families are pinned by
// TestPrometheusMetricNamesArePinned — renaming a metric is a deliberate,
// test-visible act, because a silent rename breaks every dashboard and alert
// built on the old name.

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"

	"medsen/internal/promexp"
)

// WritePrometheus renders a point-in-time metrics snapshot in the Prometheus
// text exposition format.
func (s *Service) WritePrometheus(w io.Writer) error {
	return writeMetricsProm(w, s.Snapshot())
}

// writeMetricsProm renders one Metrics snapshot, one family per field in
// declaration order. Split from WritePrometheus so the exporter unit tests
// can feed a fully populated snapshot without driving the whole service.
func writeMetricsProm(w io.Writer, m Metrics) error {
	pw := promexp.NewWriter(w)
	v := reflect.ValueOf(m)
	for i := range v.NumField() {
		f := v.Type().Field(i)
		name, value := "medsen_"+f.Tag.Get("json"), float64(v.Field(i).Int())
		if base, ok := strings.CutSuffix(name, "_ms"); ok {
			name, value = base+"_seconds", value/1e3
		}
		help := f.Tag.Get("help")
		switch kind := f.Tag.Get("metric"); kind {
		case promexp.TypeCounter:
			pw.Counter(name+"_total", help, value)
		case promexp.TypeGauge:
			pw.Gauge(name, help, value)
		default:
			return fmt.Errorf("cloud: Metrics.%s has metric kind %q, want counter or gauge", f.Name, kind)
		}
	}
	return pw.Err()
}

// wantsPrometheus decides the /metrics representation. The explicit
// ?format= parameter wins; otherwise the Accept header decides — a
// Prometheus scraper advertises text/plain (version 0.0.4) or the
// OpenMetrics type, while JSON consumers send application/json or nothing.
// The fallback stays JSON so every pre-existing consumer keeps working.
func wantsPrometheus(r *http.Request) (prom bool, ok bool) {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true, true
	case "json":
		return false, true
	case "":
	default:
		return false, false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text"), true
}
