package phone

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"medsen/internal/cloud"
	"medsen/internal/csvio"
)

// flakyCloud wraps a live analysis service behind a switch that simulates a
// dead cellular link.
func flakyCloud(t *testing.T) (*cloud.Client, *atomic.Bool) {
	t.Helper()
	svc, err := cloud.NewService(cloud.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	inner := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return &cloud.Client{BaseURL: ts.URL}, &down
}

func TestQueueEnqueuePendingOrder(t *testing.T) {
	q := &OfflineQueue{Dir: t.TempDir()}
	for i := 0; i < 3; i++ {
		if _, err := q.Enqueue([]byte{byte(i)}); err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
	}
	names, err := q.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("pending = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("queue order broken: %v", names)
		}
	}
}

func TestQueueRequiresDir(t *testing.T) {
	q := &OfflineQueue{}
	if _, err := q.Enqueue([]byte("x")); err == nil {
		t.Error("expected error without directory")
	}
	if _, err := q.Pending(); err == nil {
		t.Error("expected error without directory")
	}
}

func TestQueuePendingEmptyWhenDirMissing(t *testing.T) {
	q := &OfflineQueue{Dir: t.TempDir() + "/never-created"}
	names, err := q.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("pending = %v", names)
	}
}

func TestUploadOrQueueSpoolsOnOutageAndFlushes(t *testing.T) {
	client, down := flakyCloud(t)
	relay := &Relay{Client: client, Uplink: Default4G()}
	q := &OfflineQueue{Dir: t.TempDir()}
	ctx := context.Background()

	// uploadOrQueue ships a capture live and spools it when the upload
	// fails, as the chaos soak does: the measurement is never lost. Each
	// upload is a distinct capture (distinct seeds): identical bytes would
	// dedup server-side into one analysis.
	uploadOrQueue := func(seed uint64) (sub cloud.SubmitResponse, queued bool) {
		t.Helper()
		payload, err := csvio.CompressAcquisition(testAcquisitionSeeded(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if sub, err := relay.Submit(ctx, payload); err == nil {
			return sub, false
		}
		if _, err := q.Enqueue(payload); err != nil {
			t.Fatalf("capture %d: both upload and spool failed: %v", seed, err)
		}
		return cloud.SubmitResponse{}, true
	}

	// Live path first.
	sub, queued := uploadOrQueue(81)
	if queued {
		t.Fatal("live upload spooled")
	}
	if sub.ID == "" {
		t.Fatal("no analysis id from live upload")
	}

	// Outage: captures spool instead of failing.
	down.Store(true)
	for i := 0; i < 2; i++ {
		if _, queued := uploadOrQueue(82 + uint64(i)); !queued {
			t.Fatalf("outage upload %d not spooled", i)
		}
	}
	if names, _ := q.Pending(); len(names) != 2 {
		t.Fatalf("pending = %v, want 2 entries", names)
	}

	// Flush fails while the link is down, without losing entries.
	if n, err := q.Flush(ctx, client); err == nil || n != 0 {
		t.Fatalf("flush during outage: n=%d err=%v", n, err)
	}
	if names, _ := q.Pending(); len(names) != 2 {
		t.Fatalf("entries lost during failed flush: %v", names)
	}

	// Connectivity returns: everything ships, spool drains.
	down.Store(false)
	n, err := q.Flush(ctx, client)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n != 2 {
		t.Fatalf("flushed %d, want 2", n)
	}
	if names, _ := q.Pending(); len(names) != 0 {
		t.Fatalf("spool not drained: %v", names)
	}
	// The cloud now holds all three analyses.
	list, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("cloud has %d analyses, want 3", len(list))
	}
}

// TestFlushReplayDedupsToOriginalAnalysis models the crash window the spool
// leaves open: the upload succeeded but the process died before the spool
// file was removed, so the next flush replays the entry. The content-derived
// capture key maps the replay to the pre-crash analysis instead of
// double-counting the capture.
func TestFlushReplayDedupsToOriginalAnalysis(t *testing.T) {
	client, _ := flakyCloud(t)
	relay := &Relay{Client: client, Uplink: Default4G()}
	ctx := context.Background()

	payload, err := csvio.CompressAcquisition(testAcquisitionSeeded(t, 81))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := relay.Submit(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": the shipped capture is still sitting in the spool when the
	// next process comes up and flushes.
	q := &OfflineQueue{Dir: t.TempDir()}
	if _, err := q.Enqueue(payload); err != nil {
		t.Fatal(err)
	}
	n, err := q.Flush(ctx, client)
	if err != nil {
		t.Fatalf("replay flush: %v", err)
	}
	if n != 1 {
		t.Fatalf("flushed %d, want 1", n)
	}
	if names, _ := q.Pending(); len(names) != 0 {
		t.Fatalf("spool not drained: %v", names)
	}
	list, err := client.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("cloud has %d analyses, want 1 (replay deduped)", len(list))
	}
	if list[0].ID != sub.ID {
		t.Fatalf("surviving analysis %s, want the pre-crash %s", list[0].ID, sub.ID)
	}
}

func TestFlushValidation(t *testing.T) {
	q := &OfflineQueue{Dir: t.TempDir()}
	if _, err := q.Flush(context.Background(), nil); err == nil {
		t.Fatal("expected error for nil client")
	}
}

func TestQueueRoundTripPayloadIntact(t *testing.T) {
	q := &OfflineQueue{Dir: t.TempDir()}
	acq := testAcquisition(t)
	payload, err := csvio.CompressAcquisition(acq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(payload); err != nil {
		t.Fatal(err)
	}
	names, err := q.Pending()
	if err != nil || len(names) != 1 {
		t.Fatalf("pending %v err %v", names, err)
	}
}

func TestQueueSequenceContinuesAfterFlush(t *testing.T) {
	q := &OfflineQueue{Dir: t.TempDir()}
	first, err := q.Enqueue([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := q.Enqueue([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("sequence numbers collided")
	}
	// Names must be zero-padded so lexical order equals numeric order.
	if len(first) != len(second) {
		t.Fatalf("inconsistent name widths: %q vs %q", first, second)
	}
}
