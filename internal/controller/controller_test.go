package controller

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"testing"

	"medsen/internal/beads"
	"medsen/internal/cloud"
	"medsen/internal/devicelink"
	"medsen/internal/diagnosis"
	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/phone"
	"medsen/internal/sensor"
)

func quietSensor() *sensor.Sensor {
	s := sensor.NewDefault()
	s.Lockin.NoiseSigma = 0.0001
	s.Lockin.Drift = lockin.Drift{LinearPerHour: -0.05}
	s.Loss = microfluidic.LossModel{Disabled: true}
	return s
}

func newController(t *testing.T) *Controller {
	t.Helper()
	c, err := New(quietSensor(), drbg.NewFromSeed(91))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Tame gain range so all ciphertext peaks clear the detection
	// threshold in short test captures.
	c.Params.GainMin, c.Params.GainMax = 0.9, 1.8
	c.Params.MinActive = 2
	return c
}

// bloodAt returns a blood sample whose *diagnostic outcome* is known: the
// concentration is chosen so the sampled count maps back to the target
// cells/µL.
func bloodAt(concPerUl float64) microfluidic.Sample {
	return microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: concPerUl,
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, drbg.NewFromSeed(1)); err == nil {
		t.Error("expected error for nil sensor")
	}
	if _, err := New(quietSensor(), nil); err == nil {
		t.Error("expected error for nil rng")
	}
}

func TestRunDiagnosticValidation(t *testing.T) {
	c := newController(t)
	ctx := context.Background()
	if _, err := c.RunDiagnostic(ctx, RunConfig{Sample: bloodAt(100), DurationS: 10}, nil); err == nil {
		t.Error("expected error for nil analyzer")
	}
	if _, err := c.RunDiagnostic(ctx, RunConfig{Sample: bloodAt(100)}, &LocalAnalyzer{}); err == nil {
		t.Error("expected error for zero duration")
	}
}

func TestRunDiagnosticLocalAnalyzer(t *testing.T) {
	c := newController(t)
	var messages []string
	c.Notify = func(s string) { messages = append(messages, s) }

	// 150 cells/µL sampled over 180 s at 0.08 µL/min → ~0.24 µL → the
	// recovered concentration should land near 150 (critical band).
	res, err := c.RunDiagnostic(context.Background(),
		RunConfig{Sample: bloodAt(150), DurationS: 180}, &LocalAnalyzer{})
	if err != nil {
		t.Fatalf("RunDiagnostic: %v", err)
	}
	if res.Diagnosis.Severity != diagnosis.SeverityCritical {
		t.Fatalf("diagnosis = %+v, want critical band (~150 cells/µL)", res.Diagnosis)
	}
	if math.Abs(res.Diagnosis.ConcentrationPerUl-150) > 60 {
		t.Fatalf("recovered concentration %v, want ~150", res.Diagnosis.ConcentrationPerUl)
	}
	if res.CiphertextPeaks <= res.CellCount {
		t.Fatalf("ciphertext peaks %d should exceed true count %d (encryption!)",
			res.CiphertextPeaks, res.CellCount)
	}
	if res.IntegrityChecked {
		t.Fatal("integrity should not be checked without an identifier")
	}
	if res.Timing.PostAcquisition <= 0 {
		t.Fatal("missing timing")
	}
	if len(messages) < 4 {
		t.Fatalf("expected notifications, got %v", messages)
	}
}

func TestRunDiagnosticHealthyBand(t *testing.T) {
	c := newController(t)
	// A healthy 800 cells/µL sample is pre-diluted 4× (standard lab
	// practice) so the channel stays single-file; the controller scales
	// the recovered concentration back.
	res, err := c.RunDiagnostic(context.Background(),
		RunConfig{Sample: bloodAt(200), DurationS: 120, SampleDilution: 4}, &LocalAnalyzer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnosis.Severity != diagnosis.SeverityNormal {
		t.Fatalf("diagnosis = %+v, want normal (~800 cells/µL)", res.Diagnosis)
	}
}

func TestRunDiagnosticThroughPhoneAndCloud(t *testing.T) {
	svc, err := cloud.NewService(cloud.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	relay := &phone.Relay{
		Client: &cloud.Client{BaseURL: ts.URL},
		Uplink: phone.Default4G(),
	}

	c := newController(t)
	// A 350 cells/µL patient, pre-diluted 2× for single-file transport.
	res, err := c.RunDiagnostic(context.Background(),
		RunConfig{Sample: bloodAt(175), DurationS: 240, SampleDilution: 2}, relay)
	if err != nil {
		t.Fatalf("RunDiagnostic via cloud: %v", err)
	}
	if res.Diagnosis.Severity != diagnosis.SeverityWatch {
		t.Fatalf("diagnosis = %+v, want watch band (~350 cells/µL)", res.Diagnosis)
	}
}

func TestRunDiagnosticWithIntegrityCheck(t *testing.T) {
	c := newController(t)
	// Keep total particle density low enough for single-file transport:
	// diluted blood (240/µL mixed) plus a level-1 bead mix (100/µL
	// mixed).
	id := beads.Identifier{microfluidic.TypeBead780: 1}
	blood := bloodAt(300)
	mixed, err := c.Alphabet.MixedSample(id, blood)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunDiagnostic(context.Background(),
		RunConfig{Sample: mixed, DurationS: 400, Identifier: id}, &LocalAnalyzer{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IntegrityChecked {
		t.Fatal("integrity check did not run")
	}
	if !res.IntegrityOK {
		t.Fatalf("integrity check failed on honest analysis: %+v", res)
	}
	if res.BeadCount == 0 {
		t.Fatal("password beads not recognized in decrypted stream")
	}
	// Cell count should reflect the patient's blood (~300/µL after the
	// controller's mixing-dilution correction), not include the beads.
	if math.Abs(res.Diagnosis.ConcentrationPerUl-300) > 120 {
		t.Fatalf("cell concentration %v, want ~300", res.Diagnosis.ConcentrationPerUl)
	}
}

func TestIntegrityCheckCatchesTamperedReport(t *testing.T) {
	c := newController(t)
	id := beads.Identifier{microfluidic.TypeBead780: 1}
	mixed, err := c.Alphabet.MixedSample(id, bloodAt(300))
	if err != nil {
		t.Fatal(err)
	}
	// A dishonest analyst drops most peaks (e.g. substitutes another
	// patient's shorter analysis).
	res, err := c.RunDiagnostic(context.Background(),
		RunConfig{Sample: mixed, DurationS: 400, Identifier: id},
		&tamperingAnalyzer{keep: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntegrityOK {
		t.Fatal("integrity check passed on tampered report")
	}
}

// tamperingAnalyzer runs the honest pipeline, then drops a fraction of
// peaks — a curious-but-dishonest cloud substituting results.
type tamperingAnalyzer struct {
	keep float64
}

func (a *tamperingAnalyzer) Analyze(ctx context.Context, acq lockin.Acquisition) (cloud.Report, error) {
	report, err := (&LocalAnalyzer{}).Analyze(ctx, acq)
	if err != nil {
		return cloud.Report{}, err
	}
	n := int(float64(len(report.Peaks)) * a.keep)
	report.Peaks = report.Peaks[:n]
	report.PeakCount = n
	return report, nil
}

func TestAnalyzerErrorPropagates(t *testing.T) {
	c := newController(t)
	wantErr := errors.New("cloud unreachable")
	_, err := c.RunDiagnostic(context.Background(),
		RunConfig{Sample: bloodAt(100), DurationS: 10}, failingAnalyzer{err: wantErr})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("expected wrapped analyzer error, got %v", err)
	}
}

type failingAnalyzer struct{ err error }

func (f failingAnalyzer) Analyze(context.Context, lockin.Acquisition) (cloud.Report, error) {
	return cloud.Report{}, f.err
}

func TestRunAuthenticationEndToEnd(t *testing.T) {
	svc, err := cloud.NewService(cloud.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	relay := &phone.Relay{
		Client: &cloud.Client{BaseURL: ts.URL},
		Uplink: phone.Default4G(),
	}

	c := newController(t)
	id := beads.Identifier{microfluidic.TypeBead358: 2, microfluidic.TypeBead780: 4}
	if err := relay.Client.Enroll(context.Background(), "alice", id); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunAuthentication(context.Background(), id, bloodAt(600), 240, relay)
	if err != nil {
		t.Fatalf("RunAuthentication: %v", err)
	}
	if !res.Authenticated || res.UserID != "alice" {
		t.Fatalf("auth = %+v", res)
	}
}

func TestRunAuthenticationValidation(t *testing.T) {
	c := newController(t)
	id := beads.Identifier{microfluidic.TypeBead358: 2}
	if _, err := c.RunAuthentication(context.Background(), id, bloodAt(100), 60, nil); err == nil {
		t.Error("expected nil-port error")
	}
	relay := &phone.Relay{Client: &cloud.Client{BaseURL: "http://127.0.0.1:1"}}
	if _, err := c.RunAuthentication(context.Background(), id, bloodAt(100), 0, relay); err == nil {
		t.Error("expected duration error")
	}
	if _, err := c.RunAuthentication(context.Background(), beads.Identifier{}, bloodAt(100), 10, relay); err == nil {
		t.Error("expected empty-identifier error")
	}
}

func TestRunDiagnosticThroughAccessoryLink(t *testing.T) {
	// The complete Fig. 2 topology: controller → accessory link → phone
	// daemon → HTTP cloud → back through the link → decryption.
	svc, err := cloud.NewService(cloud.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	daemonCtx, stopDaemon := context.WithCancel(context.Background())
	defer stopDaemon()
	daemon := &devicelink.PhoneDaemon{
		Relay: &phone.Relay{
			Client: &cloud.Client{BaseURL: ts.URL},
			Uplink: phone.Default4G(),
		},
	}
	daemonDone := make(chan error, 1)
	go func() { daemonDone <- daemon.Serve(daemonCtx, ln) }()

	analyzer := &devicelink.LinkedAnalyzer{
		Dial: func(ctx context.Context) (io.ReadWriteCloser, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ln.Addr().String())
		},
	}
	c := newController(t)
	res, err := c.RunDiagnostic(context.Background(),
		RunConfig{Sample: bloodAt(150), DurationS: 120}, analyzer)
	if err != nil {
		t.Fatalf("RunDiagnostic via accessory link: %v", err)
	}
	if res.CellCount == 0 {
		t.Fatal("no cells recovered through the linked path")
	}
	if res.Diagnosis.Severity != diagnosis.SeverityCritical {
		t.Fatalf("diagnosis = %+v", res.Diagnosis)
	}
	stopDaemon()
	if err := <-daemonDone; err != nil {
		t.Fatalf("daemon: %v", err)
	}
}
