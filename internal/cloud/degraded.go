package cloud

// Read-only degraded mode. When durable writes persistently fail — a full
// disk, a volume remounted read-only — refusing to start (or crashing) would
// take the patient's existing diagnostic record offline along with the
// ingest path. Instead the service degrades: reads keep serving from the
// in-memory maps, mutating requests answer 503 "degraded" + Retry-After
// (which every RetryPolicy client treats as retryable), /readyz flips so a
// load balancer drains the instance, and a background probe re-checks the
// store until writes succeed again, at which point the service heals itself
// back to read-write with no operator action.
//
// Entry is deliberately conservative. Only a write whose failure fails the
// request — an analysis, a job enqueue, a user link — can degrade; a
// best-effort journal write (dedup index, job transition) is counted and
// never degrades a service that has just answered its request. And one
// failed Put does not degrade either — a single injected fault or transient
// hiccup would otherwise flap the whole instance — the failure must be
// *confirmed* by an immediate store probe also failing. Exit is eager: any
// successful durable write, or a successful recovery probe, clears the mode.

import (
	"errors"
	"net/http"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
)

// defaultStoreRecoveryInterval is how often a degraded service probes the
// store for recovery.
const defaultStoreRecoveryInterval = time.Second

// storeActor is the audit actor name for store lifecycle events — salvage,
// degradation, recovery — which have no HTTP principal behind them.
const storeActor = "store"

// noteStoreWrite observes the outcome of one durable write: every success,
// and the failures of required writes (persistPut). Often called with s.mu
// held, so it must never take s.mu.
func (s *Service) noteStoreWrite(err error) {
	if err == nil {
		if s.degraded.Load() {
			s.exitDegraded("durable write succeeded")
		}
		return
	}
	if s.degraded.Load() {
		return
	}
	// Confirm before degrading: only a store that also fails a fresh probe
	// is persistently broken.
	if probeErr := s.store.Probe(); probeErr != nil {
		s.enterDegraded(probeErr)
	}
}

// enterDegraded flips the service read-only.
func (s *Service) enterDegraded(cause error) {
	s.deg.mu.Lock()
	if s.degraded.Load() {
		s.deg.mu.Unlock()
		return
	}
	s.deg.since = time.Now()
	s.deg.reason = cause.Error()
	s.degraded.Store(true)
	s.deg.mu.Unlock()
	s.auditEvent(auth.Principal{Subject: storeActor}, "store.degraded", "store", audit.OutcomeOK, cause.Error())
}

// exitDegraded returns the service to read-write.
func (s *Service) exitDegraded(how string) {
	s.deg.mu.Lock()
	if !s.degraded.Load() {
		s.deg.mu.Unlock()
		return
	}
	since := s.deg.since
	s.deg.since = time.Time{}
	s.deg.reason = ""
	s.degraded.Store(false)
	s.deg.mu.Unlock()
	s.auditEvent(auth.Principal{Subject: storeActor}, "store.recovered", "store", audit.OutcomeOK,
		how+" after "+time.Since(since).Round(time.Millisecond).String())
}

// degradedReason reports why the service is read-only ("" when it is not).
func (s *Service) degradedReason() string {
	s.deg.mu.Lock()
	defer s.deg.mu.Unlock()
	return s.deg.reason
}

// admitMutation gates a mutating handler on the degraded flag: while the
// store cannot make an acknowledgment durable, acknowledging anyway would
// reintroduce exactly the acked-capture loss the journal exists to prevent.
// 503 + Retry-After lets every retrying client (and the phone's offline
// queue) redeliver once the disk heals. Reads are never gated.
func (s *Service) admitMutation(w http.ResponseWriter) bool {
	if !s.degraded.Load() {
		return true
	}
	// Opportunistic recovery: a healed disk should serve this very request,
	// not bounce it until the periodic prober fires. The probe costs one
	// write — no more than the durable write the request was about to do.
	if s.store != nil && s.store.Probe() == nil {
		s.exitDegraded("store probe succeeded")
		return true
	}
	writeRetryAfter(w, degradedRetryAfter)
	writeError(w, http.StatusServiceUnavailable, CodeDegraded,
		errors.New("durable storage is unavailable; the service is read-only"))
	return false
}

// degradedRetryAfter is the client backoff hint on degraded 503s: long
// enough to outlast a recovery-probe cycle.
const degradedRetryAfter = 5 * time.Second

// startStoreRecovery launches the recovery prober: while the service is
// degraded it probes the store every storeRecovery interval and heals the
// service when a probe succeeds. Without a store (or with probing disabled)
// it does nothing.
func (s *Service) startStoreRecovery() {
	if s.store == nil || s.storeRecovery <= 0 {
		return
	}
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		t := time.NewTicker(s.storeRecovery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if s.degraded.Load() && s.store.Probe() == nil {
					s.exitDegraded("store probe succeeded")
				}
			}
		}
	}()
}
