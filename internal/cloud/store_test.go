package cloud

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"medsen/internal/beads"
	"medsen/internal/drbg"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
)

func newPersistentServer(t *testing.T, dir string) (*Service, *httptest.Server, *Client) {
	t.Helper()
	svc, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, &Client{BaseURL: ts.URL}
}

func TestAnalysesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s := quietSensor()
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 200,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 60}, drbg.NewFromSeed(67))
	if err != nil {
		t.Fatal(err)
	}

	_, _, client := newPersistentServer(t, dir)
	sub, err := client.SubmitAcquisition(ctx, res.Acquisition)
	if err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh service over the same directory must serve the
	// stored analysis and continue the id sequence.
	_, _, client2 := newPersistentServer(t, dir)
	got, err := client2.GetReport(ctx, sub.ID)
	if err != nil {
		t.Fatalf("report lost across restart: %v", err)
	}
	if got.PeakCount != sub.Report.PeakCount {
		t.Fatalf("restored report differs: %d vs %d", got.PeakCount, sub.Report.PeakCount)
	}
	// A *new* capture (distinct idempotency key — the identical bytes would
	// otherwise dedup to the journaled pre-restart analysis) continues the
	// id sequence.
	sub2, err := client2.SubmitAcquisitionKeyed(ctx, res.Acquisition, "second-capture")
	if err != nil {
		t.Fatal(err)
	}
	if sub2.ID == sub.ID {
		t.Fatalf("id sequence restarted: %s reused", sub2.ID)
	}
}

func TestUserLinksSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// First life: enroll, authenticate, link.
	svc, _, client := newPersistentServer(t, dir)
	id := beads.Identifier{microfluidic.TypeBead358: 2, microfluidic.TypeBead780: 4}
	if err := svc.registry.Enroll("alice", id); err != nil {
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
	sub, err := client.SubmitAcquisition(ctx, res.Acquisition)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := client.Authenticate(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !auth.Authenticated {
		t.Fatalf("auth failed: %+v", auth)
	}

	// Second life: the user→analysis link is restored from disk.
	_, _, client2 := newPersistentServer(t, dir)
	ids, err := client2.UserAnalyses(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != sub.ID {
		t.Fatalf("user links lost: %v", ids)
	}
}

// TestLoadStateSalvagesCorruptDocument: a torn analysis document no longer
// refuses startup — it is quarantined into corrupt/ (counted, and gone from
// the next load) while the service starts on the healthy remainder. Strict
// mode (-salvage=off) restores the old refuse-to-start behavior.
func TestLoadStateSalvagesCorruptDocument(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "an-1.json"), []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("salvage mode should start over a corrupt document: %v", err)
	}
	defer svc.Close()
	if got := svc.Snapshot().StoreSalvaged; got != 1 {
		t.Fatalf("StoreSalvaged = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "corrupt", "an-1.json")); err != nil {
		t.Fatalf("corrupt document not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "an-1.json")); !os.IsNotExist(err) {
		t.Fatalf("corrupt document still in state dir: %v", err)
	}

	// A fresh service over the salvaged dir sees a clean store.
	svc2, err := NewService(ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Snapshot().StoreSalvaged; got != 0 {
		t.Fatalf("second load salvaged %d documents, want 0", got)
	}
}

// TestLoadStateStrictModeRejectsCorruptDocument pins the -salvage=off
// contract: any corrupt document refuses startup, nothing is quarantined.
func TestLoadStateStrictModeRejectsCorruptDocument(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "an-1.json"), []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(ServiceConfig{StateDir: dir, StrictLoad: true}); err == nil {
		t.Fatal("strict mode should refuse a corrupt state document")
	}
	if _, err := os.Stat(filepath.Join(dir, "an-1.json")); err != nil {
		t.Fatalf("strict mode must leave the document in place: %v", err)
	}
}

func TestLoadStateIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(ServiceConfig{StateDir: dir}); err != nil {
		t.Fatalf("non-JSON files should be ignored: %v", err)
	}
}

func TestIDNumber(t *testing.T) {
	if n, err := idNumber("an-42"); err != nil || n != 42 {
		t.Fatalf("idNumber = %d, %v", n, err)
	}
	if _, err := idNumber("zz-42"); err == nil {
		t.Fatal("expected error for foreign id")
	}
	if _, err := idNumber("an-x"); err == nil {
		t.Fatal("expected error for non-numeric id")
	}
}
