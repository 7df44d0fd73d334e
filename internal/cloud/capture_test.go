package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// faultStore is a MemStore whose next Put of one document kind fails, and
// whose Probes fail a set number of times once that Put fault has fired.
type faultStore struct {
	*MemStore
	mu          sync.Mutex
	failKind    DocKind // the next Put of this kind fails ("" = none)
	probeFaults int     // Probes to fail once the Put fault fires
	failProbes  int     // Probes still to fail
}

func newFaultStore() *faultStore { return &faultStore{MemStore: NewMemStore()} }

// failNext arms one Put fault on kind, followed by probes failed Probes.
func (f *faultStore) failNext(kind DocKind, probes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failKind, f.probeFaults = kind, probes
}

func (f *faultStore) Put(kind DocKind, id string, body []byte) error {
	f.mu.Lock()
	fire := f.failKind != "" && kind == f.failKind
	if fire {
		f.failKind, f.failProbes = "", f.probeFaults
	}
	f.mu.Unlock()
	if fire {
		return fmt.Errorf("injected %s write fault", kind)
	}
	return f.MemStore.Put(kind, id, body)
}

func (f *faultStore) Probe() error {
	f.mu.Lock()
	fail := f.failProbes > 0
	if fail {
		f.failProbes--
	}
	f.mu.Unlock()
	if fail {
		return errors.New("injected probe fault")
	}
	return f.MemStore.Probe()
}

// captureEntryPoint submits one capture through one of the four execution
// paths and returns the analysis id the path answered with.
type captureEntryPoint struct {
	name string
	// lease runs the service in pull mode, the capture executing through
	// acquire plus complete on the workqueue API.
	lease  bool
	submit func(t *testing.T, c *Client, payload []byte) (string, error)
}

var captureEntryPoints = []captureEntryPoint{
	{name: "sync", submit: func(t *testing.T, c *Client, payload []byte) (string, error) {
		sub, err := c.SubmitCompressed(context.Background(), payload)
		return sub.ID, err
	}},
	{name: "batch", submit: func(t *testing.T, c *Client, payload []byte) (string, error) {
		resp, err := c.SubmitBatch(context.Background(), []BatchSubmission{{Payload: payload}})
		if err != nil {
			return "", err
		}
		if len(resp.Results) != 1 {
			t.Fatalf("batch of one answered %d results", len(resp.Results))
		}
		if r := resp.Results[0]; !r.OK() {
			return "", fmt.Errorf("batch item: %d %s", r.Status, r.Error.Code)
		}
		return resp.Results[0].ID, nil
	}},
	{name: "async", submit: func(t *testing.T, c *Client, payload []byte) (string, error) {
		job, err := c.SubmitCompressedAsync(context.Background(), payload)
		if err != nil || job.ID == "" {
			return job.AnalysisID, err
		}
		if job = waitJob(t, c, job.ID); job.Status != JobDone {
			return "", fmt.Errorf("job %s: %s %s", job.ID, job.Status, job.ErrorCode)
		}
		return job.AnalysisID, nil
	}},
	{name: "lease", lease: true, submit: func(t *testing.T, c *Client, payload []byte) (string, error) {
		// A resubmission answers the capture's live job: a done one carries
		// its analysis, a leased one is still this worker's to complete.
		ctx := context.Background()
		job, err := c.SubmitCompressedAsync(ctx, payload)
		if err != nil || job.Status == JobDone {
			return job.AnalysisID, err
		}
		if job.Status == JobQueued {
			grant, err := c.AcquireJob(ctx, "w1")
			if err != nil || !grant.Granted || grant.Job.ID != job.ID {
				t.Fatalf("acquire = %+v, %v; want a lease on %s", grant, err, job.ID)
			}
		}
		report, _, err := AnalyzeUpload(payload, DefaultAnalysisConfig())
		if err != nil {
			t.Fatal(err)
		}
		done, err := c.CompleteJob(ctx, job.ID, "w1", report)
		return done.AnalysisID, err
	}},
}

// newContractServer hosts a service over a faultStore for one entry point.
func newContractServer(t *testing.T, ep captureEntryPoint) (*Service, *faultStore, *Client) {
	t.Helper()
	store := newFaultStore()
	svc, err := NewService(ServiceConfig{Store: store, ExternalWorkers: ep.lease, StoreRecoveryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, store, &Client{BaseURL: ts.URL}
}

// checkStored asserts the service holds exactly one analysis, id, whose
// report serves as reference, with the capture's one dedup entry resolving
// to it.
func checkStored(t *testing.T, svc *Service, c *Client, id, reference string) {
	t.Helper()
	report, err := c.GetReport(context.Background(), id)
	if err != nil {
		t.Fatalf("stored analysis %s unreadable: %v", id, err)
	}
	if got, _ := json.Marshal(report); string(got) != reference {
		t.Fatalf("stored report of %s differs from the reference analysis", id)
	}
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	if len(svc.analyses) != 1 || len(svc.dedup) != 1 {
		t.Fatalf("%d analyses, %d dedup entries; want 1 and 1", len(svc.analyses), len(svc.dedup))
	}
	for _, e := range svc.dedup {
		if e.analysisID != id {
			t.Fatalf("dedup entry resolves to %q, want %s", e.analysisID, id)
		}
	}
}

// TestCaptureContractAcrossEntryPoints pins the journey every path shares
// (capture.go): the same capture stores the same report, one dedup entry
// resolves to it, Uploads rises by one, and a resubmission dedups to it. A
// failed analysis write leaves no ghost and releases the key — on lease
// complete the lease stays live instead — and the retry lands on the id the
// failure did not burn.
func TestCaptureContractAcrossEntryPoints(t *testing.T) {
	acq, payload := testCapture(t, 821, 10)
	ref, err := Analyze(acq, DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	reference := string(refJSON)

	for _, ep := range captureEntryPoints {
		t.Run(ep.name, func(t *testing.T) {
			t.Run("stores once", func(t *testing.T) {
				svc, _, c := newContractServer(t, ep)
				id, err := ep.submit(t, c, payload)
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				checkStored(t, svc, c, id, reference)
				if m := svc.Snapshot(); m.Uploads != 1 {
					t.Fatalf("Uploads = %d, want 1", m.Uploads)
				}
				again, err := ep.submit(t, c, payload)
				if err != nil || again != id {
					t.Fatalf("resubmission = %q, %v; want a dedup to %s", again, err, id)
				}
				if m := svc.Snapshot(); m.Uploads != 1 || m.DedupHits != 1 {
					t.Fatalf("after resubmission Uploads = %d, DedupHits = %d; want 1 and 1", m.Uploads, m.DedupHits)
				}
			})
			t.Run("analysis write fails once", func(t *testing.T) {
				svc, store, c := newContractServer(t, ep)
				store.failNext(KindAnalysis, 0)
				if _, err := ep.submit(t, c, payload); err == nil {
					t.Fatal("submit acked an analysis the store refused")
				}
				if list, err := c.ListAnalyses(context.Background()); err != nil || len(list) != 0 {
					t.Fatalf("ghost analyses after the failed write: %+v, %v", list, err)
				}
				m := svc.Snapshot()
				if m.Uploads != 0 {
					t.Fatalf("Uploads = %d after the failed write, want 0", m.Uploads)
				}
				svc.mu.RLock()
				leased := 0
				for _, qj := range svc.jobs {
					if qj.Status == JobLeased && qj.WorkerID == "w1" {
						leased++
					}
				}
				entries := len(svc.dedup)
				svc.mu.RUnlock()
				if ep.lease {
					if leased != 1 {
						t.Fatal("a failed complete must leave the lease live for the worker's retry")
					}
				} else {
					if entries != 0 {
						t.Fatalf("%d dedup entries after the failure, want the key released", entries)
					}
					if m.UploadErrors != 1 {
						t.Fatalf("UploadErrors = %d, want 1", m.UploadErrors)
					}
				}
				id, err := ep.submit(t, c, payload)
				if err != nil {
					t.Fatalf("retry: %v", err)
				}
				if id != "an-1" {
					t.Fatalf("retry stored %s, want an-1 (the failure must not burn an id)", id)
				}
				checkStored(t, svc, c, id, reference)
			})
			if ep.name != "batch" {
				return
			}
			t.Run("repeat after the write fails", func(t *testing.T) {
				// The item that repeats a failed item's key runs the capture
				// afresh at its turn, as the serial loop did, instead of
				// meeting its sibling's claim.
				svc, store, c := newContractServer(t, ep)
				store.failNext(KindAnalysis, 0)
				resp, err := c.SubmitBatch(context.Background(), []BatchSubmission{{Payload: payload}, {Payload: payload}})
				if err != nil {
					t.Fatal(err)
				}
				if r := resp.Results[0]; r.Status != http.StatusInternalServerError {
					t.Fatalf("first item answered %d, want 500 for the refused write", r.Status)
				}
				if r := resp.Results[1]; r.Status != http.StatusCreated || r.ID != "an-1" {
					t.Fatalf("repeat answered %d %q, want 201 an-1", r.Status, r.ID)
				}
				checkStored(t, svc, c, "an-1", reference)
			})
		})
	}
}
