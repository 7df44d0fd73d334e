package phone

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/faultinject"
)

// TestEnqueueSweepsStaleTmp: a *.tmp leftover from a crash mid-Enqueue is
// removed by the next Enqueue, and never blocks or corrupts the sequence.
func TestEnqueueSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "000001.zip.tmp"), []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000002.zip"), []byte("live"), 0o600); err != nil {
		t.Fatal(err)
	}
	q := &OfflineQueue{Dir: dir}
	name, err := q.Enqueue([]byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if name != "000003.zip" {
		t.Fatalf("enqueued as %q, want 000003.zip", name)
	}
	if _, err := os.Stat(filepath.Join(dir, "000001.zip.tmp")); !os.IsNotExist(err) {
		t.Fatalf("stale tmp not swept: %v", err)
	}
	names, err := q.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "000002.zip" || names[1] != "000003.zip" {
		t.Fatalf("pending = %v", names)
	}
}

// liveCloud spins up a real analysis service.
func liveCloud(t *testing.T) *cloud.Client {
	t.Helper()
	svc, err := cloud.NewService(cloud.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return &cloud.Client{BaseURL: ts.URL}
}

// TestFlushParksCorruptEntry: one undecodable spool file must be parked with
// a .bad suffix, not wedge the captures behind it.
func TestFlushParksCorruptEntry(t *testing.T) {
	client := liveCloud(t)
	q := &OfflineQueue{Dir: t.TempDir()}
	payload, err := csvio.CompressAcquisition(testAcquisition(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue([]byte("not a zip at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(payload); err != nil {
		t.Fatal(err)
	}

	n, err := q.Flush(context.Background(), client)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n != 2 {
		t.Fatalf("flushed %d, want 2", n)
	}
	if names, _ := q.Pending(); len(names) != 0 {
		t.Fatalf("spool not drained: %v", names)
	}
	parked, err := q.Parked()
	if err != nil {
		t.Fatal(err)
	}
	if len(parked) != 1 || parked[0] != "000002.zip.bad" {
		t.Fatalf("parked = %v, want [000002.zip.bad]", parked)
	}
	// The parked name keeps owning its sequence number: a new capture must
	// not recycle it (a later park would overwrite the forensic file).
	if name, err := q.Enqueue(payload); err != nil || name != "000003.zip" {
		t.Fatalf("post-park enqueue = %q, %v; want 000003.zip", name, err)
	}
}

// TestFlushParksUnreadableEntry: a spool entry the disk refuses to read back
// is parked, and the rest still ships.
func TestFlushParksUnreadableEntry(t *testing.T) {
	client := liveCloud(t)
	payload, err := csvio.CompressAcquisition(testAcquisition(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seed := &OfflineQueue{Dir: dir}
	for i := 0; i < 2; i++ {
		if _, err := seed.Enqueue(payload); err != nil {
			t.Fatal(err)
		}
	}
	// The first ReadFile (entry 000001) fails; everything after succeeds.
	q := &OfflineQueue{Dir: dir, FS: faultinject.NewFS(nil, faultinject.FSConfig{
		Seed: 5, ReadErrRate: 1, MaxFaults: 1,
	})}
	n, err := q.Flush(context.Background(), client)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n != 1 {
		t.Fatalf("flushed %d, want 1", n)
	}
	parked, err := q.Parked()
	if err != nil {
		t.Fatal(err)
	}
	if len(parked) != 1 || parked[0] != "000001.zip.bad" {
		t.Fatalf("parked = %v, want [000001.zip.bad]", parked)
	}
}
