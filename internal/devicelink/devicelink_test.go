package devicelink

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/phone"
	"medsen/internal/sensor"
	"medsen/internal/sigproc"
)

func testAcquisition(t *testing.T) lockin.Acquisition {
	t.Helper()
	s := sensor.NewDefault()
	s.Loss = microfluidic.LossModel{Disabled: true}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 200,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 30}, drbg.NewFromSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	return res.Acquisition
}

func newRelay(t *testing.T) *phone.Relay {
	t.Helper()
	svc, err := cloud.NewService(cloud.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return &phone.Relay{
		Client: &cloud.Client{BaseURL: ts.URL},
		Uplink: phone.Default4G(),
	}
}

func TestFullLinkRoundTrip(t *testing.T) {
	relay := newRelay(t)
	acq := testAcquisition(t)

	deviceEnd, phoneEnd := net.Pipe()
	defer deviceEnd.Close()
	defer phoneEnd.Close()

	type phoneResult struct {
		id  string
		err error
	}
	phoneCh := make(chan phoneResult, 1)
	go func() {
		id, err := PhoneServe(context.Background(), phoneEnd, relay)
		phoneCh <- phoneResult{id, err}
	}()

	var progress []string
	report, err := DeviceSend(deviceEnd, acq, func(s string) { progress = append(progress, s) })
	if err != nil {
		t.Fatalf("DeviceSend: %v", err)
	}
	pr := <-phoneCh
	if pr.err != nil {
		t.Fatalf("PhoneServe: %v", pr.err)
	}
	if pr.id == "" {
		t.Fatal("no analysis id")
	}
	if report.PeakCount == 0 {
		t.Fatal("empty report returned over the link")
	}
	if len(progress) < 2 {
		t.Fatalf("expected device progress updates, got %v", progress)
	}

	// The report on the device matches what the cloud stored.
	stored, err := relay.Client.GetReport(context.Background(), pr.id)
	if err != nil {
		t.Fatal(err)
	}
	if stored.PeakCount != report.PeakCount {
		t.Fatalf("report mismatch: %d vs %d", stored.PeakCount, report.PeakCount)
	}
}

func TestFullLinkRoundTripAsync(t *testing.T) {
	// The same controller → phone → cloud path with the relay in async
	// mode: the phone submits through the job API and polls for the
	// result; the device still receives the finished report.
	relay := newRelay(t)
	relay.Async = true
	relay.PollInterval = 2 * time.Millisecond
	acq := testAcquisition(t)

	deviceEnd, phoneEnd := net.Pipe()
	defer deviceEnd.Close()
	defer phoneEnd.Close()

	phoneCh := make(chan error, 1)
	go func() {
		_, err := PhoneServe(context.Background(), phoneEnd, relay)
		phoneCh <- err
	}()
	report, err := DeviceSend(deviceEnd, acq, nil)
	if err != nil {
		t.Fatalf("DeviceSend: %v", err)
	}
	if perr := <-phoneCh; perr != nil {
		t.Fatalf("PhoneServe: %v", perr)
	}
	if report.PeakCount == 0 {
		t.Fatal("empty report over the async link")
	}
}

func TestPhoneServeAsyncPropagatesJobFailure(t *testing.T) {
	// Stub cloud: accepts the async submission, then reports the job as
	// failed — exactly the state a poller sees when a restarted service
	// recovers a job whose analysis had failed. The device must receive
	// the failure (with its error code) over the accessory link instead of
	// hanging on a report that will never come.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/analyses", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"job-1","status":"queued"}`))
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"job-1","status":"failed","error_code":"unprocessable","error":"no peaks detected"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	relay := &phone.Relay{
		Client:       &cloud.Client{BaseURL: ts.URL},
		Uplink:       phone.Default4G(),
		Async:        true,
		PollInterval: time.Millisecond,
	}
	acq := testAcquisition(t)

	deviceEnd, phoneEnd := net.Pipe()
	defer deviceEnd.Close()
	defer phoneEnd.Close()

	phoneCh := make(chan error, 1)
	go func() {
		_, err := PhoneServe(context.Background(), phoneEnd, relay)
		phoneCh <- err
	}()
	_, err := DeviceSend(deviceEnd, acq, nil)
	if err == nil {
		t.Fatal("device should see the job failure")
	}
	if !strings.Contains(err.Error(), "unprocessable") {
		t.Fatalf("device error lost the job's error code: %v", err)
	}
	perr := <-phoneCh
	if !errors.Is(perr, cloud.ErrUnprocessable) {
		t.Fatalf("phone error = %v, want cloud.ErrUnprocessable", perr)
	}
}

func TestPhoneServePropagatesCloudFailure(t *testing.T) {
	// A relay pointed at a dead server: the device must receive an error
	// frame instead of hanging.
	relay := &phone.Relay{
		Client: &cloud.Client{BaseURL: "http://127.0.0.1:1"},
		Uplink: phone.Default4G(),
	}
	acq := testAcquisition(t)

	deviceEnd, phoneEnd := net.Pipe()
	defer deviceEnd.Close()
	defer phoneEnd.Close()

	phoneCh := make(chan error, 1)
	go func() {
		_, err := PhoneServe(context.Background(), phoneEnd, relay)
		phoneCh <- err
	}()

	_, err := DeviceSend(deviceEnd, acq, nil)
	if err == nil {
		t.Fatal("device should see the upload failure")
	}
	if perr := <-phoneCh; perr == nil {
		t.Fatal("phone side should report the failure")
	}
}

func TestPhoneServeRequiresRelay(t *testing.T) {
	if _, err := PhoneServe(context.Background(), nil, nil); err == nil {
		t.Fatal("expected error for nil relay")
	}
	if _, err := PhoneServe(context.Background(), nil, &phone.Relay{}); err == nil {
		t.Fatal("expected error for relay without client")
	}
}

func TestDeviceSendHandshakeFailure(t *testing.T) {
	// The peer talks garbage instead of an accessory hello.
	deviceEnd, phoneEnd := net.Pipe()
	defer deviceEnd.Close()
	defer phoneEnd.Close()
	go func() {
		buf := make([]byte, 1024)
		_, _ = phoneEnd.Read(buf)                          // swallow the hello
		_, _ = phoneEnd.Write([]byte("HTTP/1.1 400 \r\n")) // nonsense
	}()
	_, err := DeviceSend(deviceEnd, testAcquisition(t), nil)
	if err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("expected handshake error, got %v", err)
	}
}

func TestPhoneDaemonServesSequentialSessions(t *testing.T) {
	relay := newRelay(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var sessions []string
	daemon := &PhoneDaemon{
		Relay: relay,
		OnSession: func(id string, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Errorf("session error: %v", err)
				return
			}
			sessions = append(sessions, id)
		},
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Serve(ctx, ln) }()

	acq := testAcquisition(t)
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		report, err := DeviceSend(conn, acq, nil)
		conn.Close()
		if err != nil {
			t.Fatalf("DeviceSend %d: %v", i, err)
		}
		if report.PeakCount == 0 {
			t.Fatalf("session %d: empty report", i)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sessions) != 2 {
		t.Fatalf("served %d sessions, want 2", len(sessions))
	}
}

func TestPhoneDaemonValidation(t *testing.T) {
	d := &PhoneDaemon{}
	if err := d.Serve(context.Background(), nil); err == nil {
		t.Fatal("expected error for missing relay")
	}
	d.Relay = newRelay(t)
	if err := d.Serve(context.Background(), nil); err == nil {
		t.Fatal("expected error for nil listener")
	}
}

func TestLinkedAnalyzerValidation(t *testing.T) {
	a := &LinkedAnalyzer{}
	if _, err := a.Analyze(context.Background(), lockin.Acquisition{}); err == nil {
		t.Error("expected error without a dialer")
	}
	a.Dial = func(ctx context.Context) (io.ReadWriteCloser, error) {
		return nil, context.DeadlineExceeded
	}
	if _, err := a.Analyze(context.Background(), lockin.Acquisition{}); err == nil {
		t.Error("expected dial error to propagate")
	}
}

// TestMaxReportBytesHoldsThreeHourReport re-derives MaxReportBytes from
// what it rests on: the acquisition rate, the carrier count, the peak
// detector's spacing, and one peak's report entry at its longest.
func TestMaxReportBytesHoldsThreeHourReport(t *testing.T) {
	if rate := lockin.DefaultConfig().SampleRateHz; rate != 450 {
		t.Fatalf("sample rate %v Hz; MaxReportBytes assumes 450", rate)
	}
	carriers := len(lockin.DefaultCarriersHz())
	if carriers != 8 {
		t.Fatalf("%d carriers; MaxReportBytes assumes 8", carriers)
	}
	if pc := sigproc.DefaultPeakConfig(); pc.MinWidth+pc.MinSeparation < 4 {
		t.Fatalf("peak detector %+v packs more than one peak in 4 samples", pc)
	}
	// encoding/json's longest float: 'f' form just above 1e-6, 17 digits.
	const longest = -1.2345678901234567e-06
	if b, _ := json.Marshal(longest); len(b) != 25 {
		t.Fatalf("%s is %d bytes, want 25", b, len(b))
	}
	peak := cloud.PeakReport{TimeS: longest, Amplitude: longest, WidthS: longest}
	for range carriers {
		peak.AmplitudeByCarrier = append(peak.AmplitudeByCarrier, longest)
	}
	b, err := json.Marshal([]cloud.PeakReport{peak, peak})
	if err != nil {
		t.Fatal(err)
	}
	if perPeak := (len(b) - 1) / 2; perPeak > maxPeakJSONBytes { // "[", then entry and separator twice
		t.Fatalf("a peak's entry takes %d bytes, maxPeakJSONBytes is %d", perPeak, maxPeakJSONBytes)
	}
}
