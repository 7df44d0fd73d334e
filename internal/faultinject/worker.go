package faultinject

import (
	"sync/atomic"
	"time"
)

// WorkerChaosConfig tunes a WorkerChaos injector. Rates are per leased job.
type WorkerChaosConfig struct {
	// Seed fixes the fault schedule.
	Seed int64
	// KillRate is the probability a leased job's worker vanishes mid-job —
	// no fail report, no further heartbeats, the way a SIGKILL looks to the
	// frontend.
	KillRate float64
	// StallRate is the probability the worker freezes (without heartbeats)
	// for a duration in [MinStall, MaxStall] before proceeding.
	StallRate float64
	// MinStall and MaxStall bound an injected stall (MaxStall 0 → 2× the
	// MinStall, or 100 ms when both are zero).
	MinStall time.Duration
	MaxStall time.Duration
	// MaxFaults bounds the total kills+stalls injected (<= 0 → unlimited).
	MaxFaults int
	// ForceFirstKill makes the very first decision a kill regardless of the
	// seeded draws, without consuming any of them. With low rates or a fast
	// run the probabilistic schedule can legitimately stay silent (few
	// leases → few draws); soaks that must provably exercise the
	// kill/reclaim path set this so at least one fault fires per seed while
	// every later decision still replays from the seed.
	ForceFirstKill bool
}

// WorkerChaos decides, per leased job, whether the worker holding the lease
// dies or stalls mid-job — the third seam of the chain: the analysis worker
// fleet behind the frontend's lease queue. The decision function plugs into
// workqueue.Config.FaultHook; like every injector here the schedule is
// seeded and budget-bounded, so a chaos soak replays identically and
// provably terminates.
type WorkerChaos struct {
	cfg   WorkerChaosConfig
	src   *source
	first atomic.Bool
}

// NewWorkerChaos builds a worker kill/stall injector.
func NewWorkerChaos(cfg WorkerChaosConfig) *WorkerChaos {
	if cfg.MinStall <= 0 && cfg.MaxStall <= 0 {
		cfg.MinStall = 100 * time.Millisecond
	}
	if cfg.MaxStall < cfg.MinStall {
		cfg.MaxStall = 2 * cfg.MinStall
	}
	return &WorkerChaos{cfg: cfg, src: newSource(cfg.Seed, cfg.MaxFaults)}
}

// WorkerFault is one decision: kill the worker, or stall it for Stall
// without heartbeats. The zero value is "run the job normally".
type WorkerFault struct {
	Kill  bool
	Stall time.Duration
}

// Decide draws the fault decision for one leased job. Kill and stall are
// drawn in that order from the same schedule, so a given seed produces the
// same sequence of decisions for the same sequence of leases.
func (w *WorkerChaos) Decide(string) WorkerFault {
	if w.cfg.ForceFirstKill && w.first.CompareAndSwap(false, true) && w.src.force() {
		return WorkerFault{Kill: true}
	}
	if w.src.hit(w.cfg.KillRate) {
		return WorkerFault{Kill: true}
	}
	if w.src.hit(w.cfg.StallRate) {
		stall := w.cfg.MinStall
		if spread := w.cfg.MaxStall - w.cfg.MinStall; spread > 0 {
			stall += time.Duration(w.src.intn(int(spread)))
		}
		return WorkerFault{Stall: stall}
	}
	return WorkerFault{}
}

// Injected returns how many faults (kills plus stalls) have fired.
func (w *WorkerChaos) Injected() int { return w.src.count() }
