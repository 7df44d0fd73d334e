package workqueue

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
)

// startWorker hosts a lease-mode frontend over a MemStore with the given
// attempt budget and runs one worker, w1, against it until the test ends.
func startWorker(t *testing.T, maxAttempts int) *cloud.Client {
	t.Helper()
	svc, err := cloud.NewService(cloud.ServiceConfig{
		Store: cloud.NewMemStore(), ExternalWorkers: true, MaxAttempts: maxAttempts,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	client := &cloud.Client{BaseURL: ts.URL}
	w, err := New(Config{Client: client, ID: "w1", PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker Run: %v", err)
		}
		ts.Close()
		svc.Close()
	})
	return client
}

// waitTerminal polls a job until it leaves the queued and leased states.
func waitTerminal(t *testing.T, client *cloud.Client, id string) cloud.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		job, err := client.GetJob(context.Background(), id)
		if err != nil {
			t.Fatalf("GetJob(%s): %v", id, err)
		}
		if job.Status.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerCompletesCapture: a leased valid capture is analyzed by the
// worker and stored bitwise equal to the report cloud.AnalyzeUpload gives.
func TestWorkerCompletesCapture(t *testing.T) {
	s := sensor.NewDefault()
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{microfluidic.TypeBloodCell: 300})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 10}, drbg.NewFromSeed(71))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := csvio.CompressAcquisition(res.Acquisition)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cloud.AnalyzeUpload(payload, cloud.DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}

	client := startWorker(t, 0)
	ctx := context.Background()
	job, err := client.SubmitCompressedAsync(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, client, job.ID)
	if done.Status != cloud.JobDone || len(done.History) != 1 || done.History[0].Worker != "w1" {
		t.Fatalf("job = %+v, want done by w1 in one attempt", done)
	}
	got, err := client.GetReport(ctx, done.AnalysisID)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("stored report differs from cloud.AnalyzeUpload's")
	}
}

// TestWorkerReportsUndecodablePayload: a payload that does not decode is
// reported through FailJob, and with a one-attempt budget the job is
// quarantined with the worker and the decode error code on its record.
func TestWorkerReportsUndecodablePayload(t *testing.T) {
	client := startWorker(t, 1)
	job, err := client.SubmitCompressedAsync(context.Background(), []byte("not a zip"))
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, client, job.ID)
	if done.Status != cloud.JobPoisoned || done.ErrorCode != cloud.CodeInvalidRequest {
		t.Fatalf("job = %+v, want poisoned with %s", done, cloud.CodeInvalidRequest)
	}
	if len(done.History) == 0 || done.History[0].Worker != "w1" || done.History[0].Outcome != "failed" {
		t.Fatalf("history = %+v, want a failed attempt by w1 first", done.History)
	}
	if _, err := client.GetReport(context.Background(), "an-1"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("a failed capture stored an analysis: %v", err)
	}
}
