// Chaos soak: the phone→cloud chain run under a seeded fault schedule on
// every seam at once — resets, injected 5xx and truncated bodies on the HTTP
// path, write errors and torn files under the cloud journal — asserting the
// paper's end-to-end invariant: no capture is ever lost, and every stored
// report is bitwise identical to the fault-free analysis of the same
// acquisition.
package faultinject_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/faultinject"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/phone"
	"medsen/internal/sensor"
)

// soakReference acquires one low-noise capture and returns its compressed
// payload and its fault-free reference analysis, marshaled to the exact JSON
// the API stores and serves.
func soakReference(t *testing.T, seed uint64) (payload []byte, reference string) {
	t.Helper()
	s := sensor.NewDefault()
	s.Lockin.NoiseSigma = 0.0001
	s.Lockin.Drift = lockin.Drift{LinearPerHour: -0.05}
	s.Loss = microfluidic.LossModel{Disabled: true}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 10}, drbg.NewFromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	payload, err = csvio.CompressAcquisition(res.Acquisition)
	if err != nil {
		t.Fatal(err)
	}
	report, err := cloud.Analyze(res.Acquisition, cloud.DefaultAnalysisConfig())
	if err != nil {
		t.Fatalf("reference analysis: %v", err)
	}
	ref, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	return payload, string(ref)
}

// storedReports fetches every analysis the service at baseURL stores,
// through a clean client, and counts them by their report JSON.
func storedReports(t *testing.T, baseURL string) (byReport map[string]int, total int) {
	t.Helper()
	ctx := context.Background()
	clean := &cloud.Client{BaseURL: baseURL}
	list, err := clean.ListAnalyses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byReport = make(map[string]int)
	for _, sum := range list {
		report, err := clean.GetReport(ctx, sum.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		byReport[string(data)]++
	}
	return byReport, len(list)
}

// requireExactlyOnce checks the soaks' end-to-end invariant: zero capture
// loss and exactly one stored analysis per reference, bitwise equal to it.
func requireExactlyOnce(t *testing.T, baseURL string, references []string) {
	t.Helper()
	stored, total := storedReports(t, baseURL)
	if total != len(references) {
		t.Fatalf("cloud stores %d analyses, want exactly %d", total, len(references))
	}
	for i, ref := range references {
		if n := stored[ref]; n != 1 {
			t.Errorf("capture %d: %d stored reports bitwise identical to the fault-free analysis, want exactly 1", i, n)
		}
	}
}

// TestChaosSoak is the acceptance soak (ROADMAP: seeded fault-injection
// harness). Three fixed seeds, each a phone→cloud run under HTTP and
// journal-disk faults at once; must pass under -race with zero capture loss
// and bitwise report fidelity.
func TestChaosSoak(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSoak(t, seed)
		})
	}
}

func runChaosSoak(t *testing.T, seed int64) {
	captures := 3
	if testing.Short() {
		captures = 2
	}
	ctx := context.Background()

	payloads := make([][]byte, captures)
	references := make([]string, captures)
	for i := range payloads {
		payloads[i], references[i] = soakReference(t, uint64(seed)*100+uint64(i))
	}

	// Cloud service over a faulty journal disk: write errors and torn files,
	// budgeted so progress is guaranteed.
	svc, err := cloud.NewService(cloud.ServiceConfig{
		StateDir:   t.TempDir(),
		Workers:    2,
		JobTimeout: time.Minute,
		FS: faultinject.NewFS(nil, faultinject.FSConfig{
			Seed:           seed,
			WriteErrRate:   0.2,
			ShortWriteRate: 0.1,
			RenameErrRate:  0.1,
			MaxFaults:      6,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)

	// Phone relay over a faulty 4G link, with the offline spool between it
	// and the service.
	rt := faultinject.NewRoundTripper(nil, faultinject.HTTPConfig{
		Seed:         seed,
		ResetRate:    0.3,
		FiveXXRate:   0.2,
		TruncateRate: 0.2,
		MaxFaults:    8,
	})
	relay := &phone.Relay{
		Client: &cloud.Client{
			BaseURL:        ts.URL,
			HTTPClient:     &http.Client{Transport: rt},
			AttemptTimeout: 10 * time.Second,
		},
	}
	queue := &phone.OfflineQueue{Dir: t.TempDir()}

	spooled := 0
	for i, payload := range payloads {
		// A failed upload spools; it never loses the capture.
		if _, err := relay.Submit(ctx, payload); err != nil {
			if _, err := queue.Enqueue(payload); err != nil {
				t.Fatalf("capture %d: both upload and spool failed: %v", i, err)
			}
			spooled++
		}
	}
	t.Logf("seed %d: %d/%d captures spooled during faults; http faults %d %+v",
		seed, spooled, captures, rt.Faults(), rt.Stats())

	// Drain the spool. The HTTP fault budget is finite, so this provably
	// terminates; the deadline is a backstop against regressions.
	deadline := time.Now().Add(60 * time.Second)
	for {
		pending, err := queue.Pending()
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spool never drained: %v still pending", pending)
		}
		if _, err := queue.Flush(ctx, relay.Client); err != nil {
			t.Logf("flush retry: %v", err)
			time.Sleep(20 * time.Millisecond)
		}
	}

	// No capture may have been parked as corrupt: the faults were on the
	// wire and the disk, never in the payload the queue accepted.
	if parked, _ := queue.Parked(); len(parked) != 0 {
		t.Fatalf("captures parked as corrupt: %v", parked)
	}

	// Ambiguous retries — a response torn mid-body, a replay from the spool —
	// dedup on the payload digest, so "better twice than never" tightened to
	// exactly-once the moment the index landed.
	requireExactlyOnce(t, ts.URL, references)
}

// TestDuplicateStormSoak hammers the dedup index from the client side: many
// goroutines — sync uploads, async submit-and-poll, raw spool-style replays —
// all delivering the SAME capture concurrently, through an HTTP layer that
// resets connections, injects 5xx, and tears response bodies. Every attempt
// is a legitimate retry of one logical capture, so however the race falls the
// service must store exactly one analysis and hand every winner the same id.
func TestDuplicateStormSoak(t *testing.T) {
	clients := 12
	roundsPer := 4
	if testing.Short() {
		clients = 6
		roundsPer = 2
	}
	ctx := context.Background()

	payload, reference := soakReference(t, 4242)

	svc, err := cloud.NewService(cloud.ServiceConfig{
		StateDir: t.TempDir(),
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)

	ids := make(chan string, clients*roundsPer)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			// Per-goroutine faulty transport: each client sees its own fault
			// schedule, so retries interleave differently every seed.
			rt := faultinject.NewRoundTripper(nil, faultinject.HTTPConfig{
				Seed:         int64(c) + 1,
				ResetRate:    0.2,
				FiveXXRate:   0.15,
				TruncateRate: 0.15,
				MaxFaults:    6,
			})
			client := &cloud.Client{
				BaseURL:        ts.URL,
				HTTPClient:     &http.Client{Transport: rt},
				AttemptTimeout: 10 * time.Second,
				Retry:          &cloud.RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond},
			}
			key := cloud.CaptureKey(payload)
			for round := 0; round < roundsPer; round++ {
				var id string
				var err error
				switch (c + round) % 3 {
				case 0: // sync upload, as the phone's live path sends it
					var sub cloud.SubmitResponse
					sub, err = client.SubmitCompressedKeyed(ctx, payload, key)
					id = sub.ID
				case 1: // async submit-and-poll
					var sub cloud.SubmitResponse
					sub, err = client.SubmitAndPollKeyed(ctx, payload, 5*time.Millisecond, key)
					id = sub.ID
				default: // spool replay: unkeyed, the digest fallback dedups
					var sub cloud.SubmitResponse
					sub, err = client.SubmitCompressed(ctx, payload)
					id = sub.ID
				}
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, round, err)
					return
				}
				ids <- id
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(ids)

	// Every winner got the same analysis id.
	first := ""
	for id := range ids {
		if id == "" {
			t.Fatal("a submission returned no analysis id")
		}
		if first == "" {
			first = id
		} else if id != first {
			t.Fatalf("divergent analysis ids: %s vs %s", first, id)
		}
	}

	// Exactly one analysis stored, bitwise identical to the reference.
	requireExactlyOnce(t, ts.URL, []string{reference})

	m := svc.Snapshot()
	if m.DedupHits == 0 {
		t.Fatal("the storm produced no dedup hits")
	}
	t.Logf("storm: %d clients × %d rounds → 1 analysis, %d dedup hits", clients, roundsPer, m.DedupHits)
}
