// Worker chaos soak: the distributed analysis topology — one frontend in
// lease-queue mode, a small fleet of pull-mode worker daemons — run under a
// seeded kill/stall schedule. Workers vanish mid-job the way SIGKILLed
// processes do and freeze past their lease TTL without heartbeating; the
// frontend's reaper must reclaim every orphaned lease and re-run the job,
// and however the churn falls the end state must match the paper's
// invariant: zero capture loss, exactly one stored analysis per capture,
// each bitwise identical to the fault-free reference.
package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/faultinject"
	"medsen/internal/workqueue"
)

// TestWorkerChaosSoak is the distributed-topology acceptance soak: three
// fixed seeds, each a full frontend+fleet run with workers killed and
// stalled mid-job; must pass under -race with zero capture loss and exactly
// one analysis per capture.
func TestWorkerChaosSoak(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runWorkerChaosSoak(t, seed)
		})
	}
}

func runWorkerChaosSoak(t *testing.T, seed int64) {
	captures := 3
	if testing.Short() {
		captures = 2
	}
	const fleet = 3
	const leaseTTL = 300 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	payloads := make([][]byte, captures)
	references := make([]string, captures)
	for i := range payloads {
		payloads[i], references[i] = soakReference(t, uint64(seed)*1000+uint64(i))
	}

	// Frontend in lease-queue mode: no in-process pool, a short TTL so an
	// orphaned lease is noticed fast, and an unbounded attempt budget — the
	// fault budget below is finite, so every job eventually lands and
	// nothing may be quarantined into capture loss.
	svc, err := cloud.NewService(cloud.ServiceConfig{
		StateDir:        t.TempDir(),
		ExternalWorkers: true,
		LeaseTTL:        leaseTTL,
		MaxAttempts:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)

	// One seeded kill/stall schedule shared by the fleet: stalls outlast the
	// lease TTL so every injected fault strands a lease for the reaper. The
	// first lease is force-killed — the number of probabilistic draws equals
	// the number of lease grants, so on a fast machine a seed whose opening
	// draws all miss would otherwise complete every job first-try and soak
	// nothing.
	chaos := faultinject.NewWorkerChaos(faultinject.WorkerChaosConfig{
		Seed:           seed,
		KillRate:       0.35,
		StallRate:      0.35,
		MinStall:       2 * leaseTTL,
		MaxStall:       3 * leaseTTL,
		MaxFaults:      4 * captures,
		ForceFirstKill: true,
	})
	hook := func(jobID string) workqueue.Fault {
		f := chaos.Decide(jobID)
		return workqueue.Fault{Kill: f.Kill, Stall: f.Stall}
	}

	// The fleet: each slot respawns its worker after a fault-injected kill,
	// as a process supervisor would, under a fresh identity (a restarted
	// daemon gets a new pid).
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var kills atomic.Int64
	var fleetWG sync.WaitGroup
	for slot := 0; slot < fleet; slot++ {
		fleetWG.Add(1)
		go func(slot int) {
			defer fleetWG.Done()
			for gen := 0; ; gen++ {
				w, err := workqueue.New(workqueue.Config{
					Client:            &cloud.Client{BaseURL: ts.URL},
					ID:                fmt.Sprintf("chaos-w%d-g%d", slot, gen),
					PollInterval:      25 * time.Millisecond,
					HeartbeatInterval: leaseTTL / 3,
					FaultHook:         hook,
				})
				if err != nil {
					t.Errorf("slot %d: %v", slot, err)
					return
				}
				err = w.Run(workerCtx)
				if errors.Is(err, workqueue.ErrKilled) {
					kills.Add(1)
					continue // respawn
				}
				if err != nil && workerCtx.Err() == nil {
					t.Errorf("slot %d gen %d: %v", slot, gen, err)
				}
				return
			}
		}(slot)
	}
	defer fleetWG.Wait()

	// Submit every capture through the async job API and wait each one out
	// to a stored analysis, however many leases it burns on the way.
	var submitWG sync.WaitGroup
	ids := make([]string, captures)
	for i, payload := range payloads {
		submitWG.Add(1)
		go func(i int, payload []byte) {
			defer submitWG.Done()
			client := &cloud.Client{BaseURL: ts.URL,
				Retry: &cloud.RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond}}
			sub, err := client.SubmitAndPoll(ctx, payload, 25*time.Millisecond)
			if err != nil {
				t.Errorf("capture %d: %v", i, err)
				return
			}
			ids[i] = sub.ID
		}(i, payload)
	}
	submitWG.Wait()
	if t.Failed() {
		return
	}
	stopWorkers()
	fleetWG.Wait()

	// The soak must actually have exercised the seam: ForceFirstKill pins at
	// least one fault per seed, so a zero here means the hook went dead, not
	// that the fleet got lucky.
	if chaos.Injected() == 0 {
		t.Fatal("no worker faults were injected; the soak exercised nothing")
	}

	// Every fault strands a lease (kills abandon it, stalls outlast it), so
	// the reaper must have expired and reclaimed at least one.
	m := svc.Snapshot()
	if m.LeaseExpirations == 0 {
		t.Errorf("%d faults injected but no lease ever expired", chaos.Injected())
	}
	if m.JobsReclaimed == 0 {
		t.Errorf("%d faults injected but no job was reclaimed", chaos.Injected())
	}
	if m.JobsPoisoned != 0 {
		t.Errorf("%d jobs poisoned under an unbounded attempt budget", m.JobsPoisoned)
	}

	requireExactlyOnce(t, ts.URL, references)
	t.Logf("seed %d: %d faults (%d kills), %d lease expirations, %d reclaims, %d attempts journaled",
		seed, chaos.Injected(), kills.Load(), m.LeaseExpirations, m.JobsReclaimed, m.JobsEnqueued)
}
