// Disk-fault chaos soak: several service lives over ONE state directory,
// with seeded write faults during each life, a sticky full-disk window that
// drives the service into read-only degraded mode and back, and deliberate
// between-life corruption — bit-flipped documents, planted garbage, foreign
// files — that each restart must salvage, not crash on. The invariant is the
// durable-state version of the paper's no-loss guarantee: every acked
// capture survives every life bitwise intact, and each restart quarantines
// exactly the documents that were deliberately broken. Exactly-once is
// asserted whenever the dedup journal stayed clean; a journal write the
// seeded faults killed downgrades that capture to the documented
// at-least-once (dedup.go), never to loss.
package faultinject_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/faultinject"
)

func TestDiskChaosSoak(t *testing.T) {
	for _, seed := range []int64{3, 11, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runDiskChaosSoak(t, seed)
		})
	}
}

// ackedCapture is one capture the service acknowledged: its dedup key, the
// analysis id the ack carried, and the fault-free reference report JSON it
// must keep serving bitwise intact.
type ackedCapture struct {
	key       string
	id        string
	payload   []byte
	reference string
}

func runDiskChaosSoak(t *testing.T, seed int64) {
	lives := 3
	capturesPerLife := 2
	if testing.Short() {
		lives = 2
	}
	ctx := context.Background()
	dir := t.TempDir()

	var acked []ackedCapture
	var mu sync.Mutex
	captureSeq := 0
	var dedupJournalErrs int64 // summed across closed lives

	for life := 0; life < lives; life++ {
		// Between lives, vandalize the state directory and remember exactly
		// how many real documents were broken: the next life must salvage
		// precisely that many — no fewer (a corrupt record slipped through)
		// and no more (a healthy record was condemned).
		expectSalvage := 0
		if life > 0 {
			expectSalvage = vandalizeStateDir(t, dir, life)
		}

		corruptBefore := countDirEntries(t, filepath.Join(dir, "corrupt"))
		ffs := faultinject.NewFS(nil, faultinject.FSConfig{
			Seed:           seed*1000 + int64(life),
			WriteErrRate:   0.15,
			ShortWriteRate: 0.1,
			RenameErrRate:  0.1,
			ENOSPCRate:     0.1,
			MaxFaults:      6,
		})
		// Startup itself runs under the seeded faults, so even the
		// quarantining rename can fail; the operator's restart is the retry.
		// The budget is finite, so the loop terminates; the fault counter is
		// shared across attempts, so no life escapes its schedule.
		var svc *cloud.Service
		var err error
		for attempt := 0; ; attempt++ {
			svc, err = cloud.NewService(cloud.ServiceConfig{
				StateDir:   dir,
				Workers:    2,
				JobTimeout: time.Minute,
				FS:         ffs,
			})
			if err == nil {
				break
			}
			if attempt >= 20 {
				t.Fatalf("life %d: service never started over the vandalized directory: %v", life, err)
			}
			t.Logf("life %d: startup attempt %d: %v", life, attempt, err)
		}
		ts := httptest.NewServer(svc.Handler())

		// Exactly the deliberately broken documents were quarantined — no
		// fewer (a corrupt record slipped through) and no more (a healthy
		// record was condemned). Counted on disk rather than via the metric,
		// because a faulted startup attempt may already have moved some.
		if got := countDirEntries(t, filepath.Join(dir, "corrupt")) - corruptBefore; got != expectSalvage {
			t.Fatalf("life %d: quarantined %d documents, want exactly %d", life, got, expectSalvage)
		}

		// Every previously acked capture must still be served bitwise intact.
		// When every dedup journal write so far landed, its key must also
		// still dedup to the same analysis — exactly-once across restarts,
		// salvage, and the degraded window.
		verify := &cloud.Client{
			BaseURL: ts.URL,
			Retry:   &cloud.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond},
		}
		for i, a := range acked {
			report, err := verify.GetReport(ctx, a.id)
			if err != nil {
				t.Fatalf("life %d: acked capture %d (%s) lost: %v", life, i, a.id, err)
			}
			data, err := json.Marshal(report)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != a.reference {
				t.Fatalf("life %d: acked capture %d (%s) diverged from its reference", life, i, a.id)
			}
			if dedupJournalErrs == 0 {
				resub, err := verify.SubmitCompressedKeyed(ctx, a.payload, a.key)
				if err != nil {
					t.Fatalf("life %d: replaying acked capture %d: %v", life, i, err)
				}
				if resub.ID != a.id {
					t.Fatalf("life %d: replay of capture %d produced %s, want the original %s", life, i, resub.ID, a.id)
				}
			}
		}

		// New captures under seeded disk faults, submitted concurrently —
		// alternating the sync and async paths — through retrying clients.
		// The fault budget is finite, so every submission eventually acks.
		var wg sync.WaitGroup
		for c := 0; c < capturesPerLife; c++ {
			captureSeq++
			n := captureSeq
			async := c%2 == 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload, reference := soakReference(t, uint64(seed)*1000+uint64(n))
				client := &cloud.Client{
					BaseURL: ts.URL,
					Retry:   &cloud.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond},
				}
				key := cloud.CaptureKey(payload)
				// The HTTP-level retry policy does not resubmit a job that
				// ran and FAILED on a journal fault; the capture's owner does
				// — the key makes the resubmission exactly-once, and a failed
				// job releases its key so the re-run is admitted.
				var sub cloud.SubmitResponse
				var err error
				for attempt := 0; attempt < 10; attempt++ {
					if async {
						sub, err = client.SubmitAndPollKeyed(ctx, payload, 5*time.Millisecond, key)
					} else {
						sub, err = client.SubmitCompressedKeyed(ctx, payload, key)
					}
					if err == nil {
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
				if err != nil {
					t.Errorf("life %d capture %d: never acked: %v", life, n, err)
					return
				}
				mu.Lock()
				acked = append(acked, ackedCapture{key: key, id: sub.ID, payload: payload, reference: reference})
				mu.Unlock()
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		// First life only: the disk fills. A submission fails, the service
		// flips read-only (reads keep serving), and the moment the disk heals
		// the same capture lands — exactly once under its key.
		if life == 0 {
			captureSeq++
			payload, reference := soakReference(t, uint64(seed)*1000+uint64(captureSeq))
			key := cloud.CaptureKey(payload)
			noRetry := &cloud.Client{BaseURL: ts.URL}

			ffs.SetDiskFull(true)
			if _, err := noRetry.SubmitCompressedKeyed(ctx, payload, key); err == nil {
				t.Fatal("submit on a full disk acked without durability")
			}
			if got := svc.Snapshot().StoreDegraded; got != 1 {
				t.Fatalf("StoreDegraded on full disk = %d, want 1", got)
			}
			if len(acked) > 0 {
				if _, err := noRetry.GetReport(ctx, acked[0].id); err != nil {
					t.Fatalf("read while degraded: %v", err)
				}
			}
			ffs.SetDiskFull(false)
			// The retrying client rides out any leftover seeded faults; the
			// degraded gate itself lifts on the first admitted mutation.
			retry := &cloud.Client{
				BaseURL: ts.URL,
				Retry:   &cloud.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond},
			}
			sub, err := retry.SubmitCompressedKeyed(ctx, payload, key)
			if err != nil {
				t.Fatalf("submit after the disk healed: %v", err)
			}
			if got := svc.Snapshot().StoreDegraded; got != 0 {
				t.Fatalf("StoreDegraded after healing = %d, want 0", got)
			}
			acked = append(acked, ackedCapture{key: key, id: sub.ID, payload: payload, reference: reference})
		}

		m := svc.Snapshot()
		dedupJournalErrs += m.DedupJournalErrors
		t.Logf("seed %d life %d: %d captures acked, %d disk faults, %d salvaged, %d dedup journal errors",
			seed, life, len(acked), ffs.Faults(), m.StoreSalvaged, m.DedupJournalErrors)
		ts.Close()
		svc.Close()
	}

	// Final verdict through a clean, fault-free life: every acked capture's
	// reference is stored, exactly once when the dedup journal stayed clean
	// throughout (a journaling fault legitimately costs a duplicate — never a
	// loss).
	svc, err := cloud.NewService(cloud.ServiceConfig{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	stored, total := storedReports(t, ts.URL)
	if dedupJournalErrs == 0 && total != len(acked) {
		t.Fatalf("final state holds %d analyses, want exactly %d (one per acked capture)", total, len(acked))
	}
	for i, a := range acked {
		n := stored[a.reference]
		if n == 0 {
			t.Errorf("capture %d: acked but its reference analysis is gone", i)
		}
		if dedupJournalErrs == 0 && n != 1 {
			t.Errorf("capture %d: %d stored reports match the reference, want exactly 1", i, n)
		}
	}
}

// countDirEntries counts the files in dir; a missing dir counts zero.
func countDirEntries(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	return len(entries)
}

// vandalizeStateDir breaks the directory the way real disks do between
// boots — a flipped bit in one journal document, a torn write full of
// garbage, a stray file — and returns how many real documents the next
// startup must quarantine. Only job-journal documents are flipped: analyses
// are the acked medical record whose loss the soak exists to rule out, and a
// done job's dedup entry already points at its analysis, so salvaging the
// job document must not disturb either.
func vandalizeStateDir(t *testing.T, dir string, life int) int {
	t.Helper()
	broken := 0
	jobs, err := filepath.Glob(filepath.Join(dir, "job-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(jobs)
	if len(jobs) > 0 {
		name := jobs[0]
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(name, data, 0o600); err != nil {
			t.Fatal(err)
		}
		broken++
	}
	// A torn write that never was a document, filed under a real-looking
	// name, and a foreign file the loader must simply ignore.
	garbage := filepath.Join(dir, fmt.Sprintf("an-99%d.json", life))
	if err := os.WriteFile(garbage, []byte("\x00\xffnot json"), 0o600); err != nil {
		t.Fatal(err)
	}
	broken++
	if err := os.WriteFile(filepath.Join(dir, "NOTES.txt"), []byte("operator scribbles"), 0o600); err != nil {
		t.Fatal(err)
	}
	return broken
}
