// Package faultinject is a seeded fault-injection toolkit for the untrusted
// seams of the MedSen chain (§II, §VI-D): the phone's and cloud's
// spool/journal disks, the cellular HTTP path to the analysis service, and
// the worker fleet behind the service's lease queue. The threat model says
// these seams may fail or misbehave without losing a capture — "the patient
// cannot re-bleed" — so the chaos tests wrap each seam in one of these
// injectors and assert the pipeline still delivers every report bit-exact.
//
// Three injectors cover the three seams:
//
//   - FaultyFS wraps an FS (write errors, short writes, read errors, slow
//     syncs) — the slow or failing disk under the cloud store/journal and
//     the phone OfflineQueue.
//   - RoundTripper wraps an http.RoundTripper (connection resets, injected
//     5xx, truncated bodies, latency) — the dropped 4G link under
//     cloud.Client.
//   - WorkerChaos kills or stalls a lease worker mid-job.
//
// Every injector draws from its own seeded generator, so a fault schedule
// replays identically for the same seed and call sequence. Under concurrent
// callers the call sequence follows goroutine scheduling, so one seed can
// inject different faults on different runs. Every rate can be bounded by a
// MaxFaults budget so a test provably terminates: once the budget is spent
// the injector becomes a transparent passthrough.
package faultinject

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrInjected is the root of every error this package fabricates; callers
// distinguish injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// source is a mutex-guarded seeded generator with a fault budget. Each
// injector (or independent direction of one) owns its own source, so
// concurrent use of unrelated injectors cannot perturb each other's
// deterministic schedules.
type source struct {
	mu       sync.Mutex
	rng      *rand.Rand
	budget   int // remaining faults; < 0 means unlimited
	injected int
}

func newSource(seed int64, maxFaults int) *source {
	budget := maxFaults
	if budget <= 0 {
		budget = -1
	}
	return &source{rng: rand.New(rand.NewSource(seed)), budget: budget}
}

// hit draws one decision at probability rate, consuming the budget when it
// fires. A zero rate consumes no randomness, keeping unrelated fault kinds
// independent of each other's configuration.
func (s *source) hit(rate float64) bool {
	if rate <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget == 0 {
		return false
	}
	if s.rng.Float64() >= rate {
		return false
	}
	if s.budget > 0 {
		s.budget--
	}
	s.injected++
	return true
}

// force consumes one fault from the budget unconditionally, without drawing
// randomness, so a caller can pin a guaranteed fault into an otherwise
// probabilistic schedule (keeping the seeded draw sequence untouched).
// Returns false only when the budget is exhausted.
func (s *source) force() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget == 0 {
		return false
	}
	if s.budget > 0 {
		s.budget--
	}
	s.injected++
	return true
}

// intn draws a bounded integer (for picking flip bits, truncation points).
func (s *source) intn(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(n)
}

// count returns how many faults this source has injected so far.
func (s *source) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}
