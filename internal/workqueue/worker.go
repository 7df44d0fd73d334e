// Package workqueue is the analysis worker daemon: the pull side of the
// frontend's lease-based work queue (internal/cloud/workqueue.go). A worker
// polls the acquire endpoint, holds a heartbeat-renewed lease while it runs
// the DSP pipeline on the leased capture, and posts the finished report back
// — or a failure verdict the frontend counts against the job's attempt
// budget.
//
// The worker is deliberately stateless: every durable fact about a job (its
// payload, lease, attempt history) lives in the frontend's journal. A worker
// that is SIGKILLed, stalled, or partitioned mid-job simply stops
// heartbeating; the frontend reaper reclaims the lease and hands the job to
// another worker. The one invariant the worker upholds is lease discipline:
// once any call answers lease_lost, the worker abandons the job without
// posting its result — the current lease holder's result is the one that
// counts, which is how exactly-one-analysis-per-capture survives worker
// churn.
package workqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"medsen/internal/cloud"
)

// Fault is a chaos instruction for one leased job, injected by tests via
// Config.FaultHook: Kill abandons the job silently mid-run (the worker
// behaves as if SIGKILLed — no fail report, no further heartbeats) and
// terminates the worker; Stall freezes the worker without heartbeats for the
// duration before it proceeds, exercising lease expiry on a worker that is
// slow rather than dead.
type Fault struct {
	Kill  bool
	Stall time.Duration
}

// Config assembles a worker daemon.
type Config struct {
	// Client reaches the frontend; its APIKey should be a worker-role key
	// when the frontend runs with authentication.
	Client *cloud.Client
	// ID names this worker on the lease API; it must be unique across the
	// fleet (hostname+pid is a fine choice). Required.
	ID string
	// Concurrency is the number of jobs run at once (0 → 1).
	Concurrency int
	// PollInterval is the idle back-off between empty acquire polls
	// (0 → 500 ms).
	PollInterval time.Duration
	// HeartbeatInterval is how often a held lease is renewed (0 → a third
	// of the granted lease TTL).
	HeartbeatInterval time.Duration
	// Analysis configures the DSP pipeline (zero value → defaults).
	Analysis cloud.AnalysisConfig
	// FaultHook, when non-nil, is consulted once per leased job; chaos
	// tests inject kills and stalls through it. nil means no faults.
	FaultHook func(jobID string) Fault
}

// Worker runs analysis jobs leased from a frontend.
type Worker struct {
	cfg Config
}

// New validates the configuration and builds a worker.
func New(cfg Config) (*Worker, error) {
	if cfg.Client == nil {
		return nil, errors.New("workqueue: a client is required")
	}
	if cfg.ID == "" {
		return nil, errors.New("workqueue: a worker id is required")
	}
	if cfg.Concurrency < 0 || cfg.PollInterval < 0 || cfg.HeartbeatInterval < 0 {
		return nil, fmt.Errorf("workqueue: negative concurrency %d, poll interval %v, or heartbeat interval %v",
			cfg.Concurrency, cfg.PollInterval, cfg.HeartbeatInterval)
	}
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 1
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.Analysis.ReferenceCarrierHz == 0 {
		cfg.Analysis = cloud.DefaultAnalysisConfig()
	}
	return &Worker{cfg: cfg}, nil
}

// ErrKilled is returned by Run when the fault hook ordered a kill: the
// worker vanished mid-job the way a SIGKILLed process would — no fail
// report, no further heartbeats — and chaos tests respawn it.
var ErrKilled = errors.New("workqueue: worker killed by fault injection")

// Run polls for work until the context is cancelled (or a fault-injected
// kill), running up to Concurrency jobs at once. It returns nil on a clean
// cancellation. Any slot error — including ErrKilled — takes the whole
// worker down, as a process death would: sibling slots stop without posting
// results, and the frontend reclaims whatever leases they held.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, w.cfg.Concurrency)
	for i := 0; i < w.cfg.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.runSlot(ctx); err != nil {
				errCh <- err
				cancel()
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return nil
}

// runSlot is one concurrency slot's acquire-execute loop.
func (w *Worker) runSlot(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		grant, err := w.cfg.Client.AcquireJob(ctx, w.cfg.ID)
		if err != nil {
			// Frontend unreachable or refusing: back off like an empty
			// queue; the next poll retries. Cancellation surfaces above.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err := w.idle(ctx); err != nil {
				return err
			}
			continue
		}
		if !grant.Granted {
			if err := w.idle(ctx); err != nil {
				return err
			}
			continue
		}
		if err := w.runJob(ctx, grant); err != nil {
			return err
		}
	}
}

// idle sleeps one poll interval or until cancellation.
func (w *Worker) idle(ctx context.Context) error {
	t := time.NewTimer(w.cfg.PollInterval)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runJob executes one leased job under its heartbeat. Lease discipline: the
// heartbeat goroutine cancels the job the moment a renewal answers
// lease_lost, and a lease_lost on complete/fail is swallowed — the job
// belongs to someone else now, and the frontend guarantees exactly one
// stored analysis regardless.
func (w *Worker) runJob(ctx context.Context, grant cloud.LeaseGrant) error {
	jobID := grant.Job.ID
	if w.cfg.FaultHook != nil {
		f := w.cfg.FaultHook(jobID)
		if f.Kill {
			// Vanish mid-job: no fail report, no heartbeat, slot gone —
			// exactly what a SIGKILL looks like to the frontend.
			return ErrKilled
		}
		if f.Stall > 0 {
			// Freeze without heartbeats; the lease may expire underneath.
			select {
			case <-time.After(f.Stall):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}

	interval := w.cfg.HeartbeatInterval
	if interval <= 0 {
		interval = time.Duration(grant.LeaseTTLSeconds * float64(time.Second) / 3)
	}
	if interval <= 0 {
		interval = time.Second
	}
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeat(jobCtx, cancel, jobID, interval)
	}()
	defer hbWG.Wait()

	report, code, runErr := cloud.AnalyzeUpload(grant.Payload, w.cfg.Analysis)
	if jobCtx.Err() != nil && ctx.Err() == nil {
		// The heartbeat lost the lease mid-analysis: abandon silently.
		return nil
	}
	if runErr != nil {
		_, err := w.cfg.Client.FailJob(jobCtx, jobID, w.cfg.ID, code, runErr.Error())
		if err != nil && !errors.Is(err, cloud.ErrLeaseLost) && ctx.Err() == nil && jobCtx.Err() == nil {
			return fmt.Errorf("workqueue: reporting failure of %s: %w", jobID, err)
		}
		return nil
	}
	_, err := w.cfg.Client.CompleteJob(jobCtx, jobID, w.cfg.ID, report)
	if err != nil && !errors.Is(err, cloud.ErrLeaseLost) && ctx.Err() == nil && jobCtx.Err() == nil {
		return fmt.Errorf("workqueue: completing %s: %w", jobID, err)
	}
	return nil
}

// heartbeat renews the lease until the job context ends, cancelling it when
// the lease is lost.
func (w *Worker) heartbeat(ctx context.Context, cancel context.CancelFunc, jobID string, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := w.cfg.Client.HeartbeatJob(ctx, jobID, w.cfg.ID); err != nil {
				if errors.Is(err, cloud.ErrLeaseLost) {
					cancel()
					return
				}
				// Transient renewal failure: keep ticking; the lease has a
				// full TTL of slack and the next beat may get through.
			}
		}
	}
}
