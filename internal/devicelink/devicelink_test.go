package devicelink

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"medsen/internal/accessory"
	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/phone"
	"medsen/internal/sensor"
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

// noisyConn flips a payload byte in a fraction of writes.
type noisyConn struct {
	net.Conn
	mu     sync.Mutex
	writeN int
}

func (c *noisyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	n := c.writeN
	c.writeN++
	c.mu.Unlock()
	if n > 0 && n%4 == 0 && len(p) > 16 {
		clone := append([]byte(nil), p...)
		clone[12] ^= 0xFF
		return c.Conn.Write(clone)
	}
	return c.Conn.Write(p)
}

func TestReliableLinkSurvivesNoisyCable(t *testing.T) {
	relay := newRelay(t)
	acq := testAcquisition(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type phoneResult struct {
		id  string
		err error
	}
	phoneCh := make(chan phoneResult, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			phoneCh <- phoneResult{"", err}
			return
		}
		defer conn.Close()
		id, err := PhoneServeReliable(context.Background(), conn, relay)
		phoneCh <- phoneResult{id, err}
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	device := &noisyConn{Conn: raw}

	var progress []string
	report, err := DeviceSendReliable(device, acq, func(s string) { progress = append(progress, s) })
	if err != nil {
		t.Fatalf("DeviceSendReliable: %v", err)
	}
	pr := <-phoneCh
	if pr.err != nil {
		t.Fatalf("PhoneServeReliable: %v", pr.err)
	}
	if report.PeakCount == 0 || pr.id == "" {
		t.Fatalf("report=%d id=%q", report.PeakCount, pr.id)
	}
	// The payload is several frames; every 4th write corrupted — at
	// least one retransmission must have been reported.
	sawRetrans := false
	for _, s := range progress {
		if strings.Contains(s, "retransmitted") {
			sawRetrans = true
		}
	}
	if !sawRetrans {
		t.Logf("progress: %v", progress)
	}
	// The stored report matches what the device received.
	stored, err := relay.Client.GetReport(context.Background(), pr.id)
	if err != nil {
		t.Fatal(err)
	}
	if stored.PeakCount != report.PeakCount {
		t.Fatalf("report mismatch: %d vs %d", stored.PeakCount, report.PeakCount)
	}
}

func TestReliableLinkValidation(t *testing.T) {
	if _, err := PhoneServeReliable(context.Background(), nil, nil); err == nil {
		t.Error("expected error for nil relay")
	}
	if _, err := PhoneServeReliable(context.Background(), nil, &phone.Relay{}); err == nil {
		t.Error("expected error for relay without client")
	}
	// Handshake failure on the device side.
	deviceEnd, phoneEnd := net.Pipe()
	defer deviceEnd.Close()
	defer phoneEnd.Close()
	go func() {
		buf := make([]byte, 256)
		_, _ = phoneEnd.Read(buf)
		_, _ = phoneEnd.Write([]byte("garbage-that-is-not-a-frame!"))
	}()
	if _, err := DeviceSendReliable(deviceEnd, testAcquisition(t), nil); err == nil {
		t.Error("expected handshake error")
	}
}

func TestReliableLinkPropagatesCloudFailure(t *testing.T) {
	relay := &phone.Relay{
		Client: &cloud.Client{BaseURL: "http://127.0.0.1:1"},
		Uplink: phone.Default4G(),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	phoneCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			phoneCh <- err
			return
		}
		defer conn.Close()
		_, err = PhoneServeReliable(context.Background(), conn, relay)
		phoneCh <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := DeviceSendReliable(conn, testAcquisition(t), nil); err == nil {
		t.Error("device should see the upload failure")
	}
	if err := <-phoneCh; err == nil {
		t.Error("phone should report the failure")
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

// DeviceSendReliable and PhoneServeReliable run the exchange over
// accessory's ARQ channel. No binary carries a capture over it yet (ROADMAP
// records the open decision), so they live beside the tests that drive them
// over a noisy cable.

// DeviceSendReliable is DeviceSend over the ARQ channel: measurement chunks
// and the returned report are sequence-numbered, CRC-NACK-retransmitted and
// resynchronized, so a noisy cable costs retransmissions instead of a failed
// test. The transport must be buffered (see accessory's reliable-channel
// notes).
func DeviceSendReliable(rw io.ReadWriter, acq lockin.Acquisition, progress func(string)) (cloud.Report, error) {
	conn, err := accessory.Handshake(rw, accessory.DefaultIdentity())
	if err != nil {
		return cloud.Report{}, fmt.Errorf("devicelink: handshake: %w", err)
	}
	if progress != nil {
		progress("compressing measurements")
	}
	payload, err := csvio.CompressAcquisition(acq)
	if err != nil {
		return cloud.Report{}, err
	}
	_, retrans, err := conn.SendDataReliable(payload, 0)
	if err != nil {
		return cloud.Report{}, fmt.Errorf("devicelink: sending measurements: %w", err)
	}
	if progress != nil && retrans > 0 {
		progress(fmt.Sprintf("link noise: %d chunks retransmitted", retrans))
	}
	reportJSON, _, err := conn.ReceiveDataReliable(progress)
	if err != nil {
		return cloud.Report{}, fmt.Errorf("devicelink: receiving report: %w", err)
	}
	var report cloud.Report
	if err := json.Unmarshal(reportJSON, &report); err != nil {
		return cloud.Report{}, fmt.Errorf("devicelink: decoding report: %w", err)
	}
	return report, nil
}

// PhoneServeReliable is PhoneServe over the ARQ channel.
func PhoneServeReliable(ctx context.Context, rw io.ReadWriter, relay *phone.Relay) (string, error) {
	if relay == nil || relay.Client == nil {
		return "", errors.New("devicelink: phone relay not configured")
	}
	phoneID := accessory.Identity{Manufacturer: "Google", Model: "Nexus 5", Version: "Android 4.4"}
	conn, err := accessory.Handshake(rw, phoneID)
	if err != nil {
		return "", fmt.Errorf("devicelink: handshake: %w", err)
	}
	payload, _, err := conn.ReceiveDataReliable(relay.Progress)
	if err != nil {
		return "", fmt.Errorf("devicelink: receiving measurements: %w", err)
	}
	if _, err := relay.Uplink.TransferContext(ctx, len(payload)); err != nil {
		return "", fmt.Errorf("devicelink: uplink: %w", err)
	}
	sub, err := relay.Submit(ctx, payload)
	if err != nil {
		_ = accessory.WriteFrame(rw, accessory.Frame{
			Type:    accessory.FrameError,
			Payload: []byte(err.Error()),
		})
		return "", err
	}
	reportJSON, err := json.Marshal(sub.Report)
	if err != nil {
		return "", fmt.Errorf("devicelink: encoding report: %w", err)
	}
	if _, _, err := conn.SendDataReliable(reportJSON, 0); err != nil {
		return "", fmt.Errorf("devicelink: returning report: %w", err)
	}
	return sub.ID, nil
}
