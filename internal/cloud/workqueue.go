package cloud

// The lease-based work queue: the internal API worker daemons pull analysis
// jobs from, and the reaper that guarantees no job is ever stranded by a
// worker that crashed, stalled, or fell off the network.
//
// The execution layer originally lived inside the HTTP process (jobs.go): a
// worker crash was a process crash. Splitting it out makes worker loss an
// *expected* event the frontend recovers from, with three rules:
//
//   - Every job handed to a worker carries a time-bounded lease, journaled
//     with the job. The worker renews it by heartbeating; a lease that
//     expires un-renewed means the worker is gone (killed, partitioned, or
//     stalled past the TTL) and the job no longer belongs to it.
//   - The reaper reclaims expired leases: the job goes back on the queue
//     with its attempt counter bumped, unless its analysis already committed
//     (then it resolves to the stored result — exactly-once success on top
//     of at-least-once attempts, riding the dedup index) or its attempt
//     budget is exhausted (then it is quarantined as terminal "poisoned"
//     with its full attempt history, and an audit event — never retried
//     forever, never silently dropped).
//   - A worker whose lease was lost gets 409 lease_lost on every further
//     mutation of the job. Whatever it computed is discarded; the current
//     lease holder's result is the one that counts. Exactly one analysis is
//     ever stored per capture.
//
// Workers authenticate with RoleWorker keys, which authorize exactly this
// surface (auth.ObjectWorkqueue) and nothing else.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
)

// Defaults for the lease machinery.
const (
	defaultLeaseTTL    = 30 * time.Second
	defaultMaxAttempts = 5
)

// AcquireRequest is the POST /api/v1/workqueue/acquire body.
type AcquireRequest struct {
	// WorkerID identifies the daemon taking the lease; it must be stable
	// across the lease's heartbeats and completion.
	WorkerID string `json:"worker_id"`
}

// LeaseGrant is the acquire response. Granted=false (with the queue empty)
// is a normal answer the worker polls past, not an error — so a client retry
// seam never mistakes an empty queue for a failure.
type LeaseGrant struct {
	Granted bool `json:"granted"`
	// Job is the leased job (zero when not granted).
	Job Job `json:"job,omitempty"`
	// Payload is the compressed capture to analyze.
	Payload []byte `json:"payload,omitempty"`
	// LeaseExpiryUnix is when the lease lapses without a heartbeat.
	LeaseExpiryUnix int64 `json:"lease_expiry_unix,omitempty"`
	// LeaseTTLSeconds is the renewal interval base: each heartbeat pushes
	// the expiry this far out again.
	LeaseTTLSeconds float64 `json:"lease_ttl_seconds,omitempty"`
}

// HeartbeatRequest is the heartbeat/complete/fail owner assertion; Code and
// Message are used by fail only.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse carries the renewed expiry.
type HeartbeatResponse struct {
	LeaseExpiryUnix int64 `json:"lease_expiry_unix"`
}

// CompleteRequest is the POST .../complete body: the worker's finished
// report under its owner assertion.
type CompleteRequest struct {
	WorkerID string `json:"worker_id"`
	Report   Report `json:"report"`
}

// CompleteResponse names the stored analysis.
type CompleteResponse struct {
	AnalysisID string `json:"analysis_id"`
}

// FailRequest is the POST .../fail body: the worker's terminal verdict on
// its attempt, in the error-envelope code vocabulary.
type FailRequest struct {
	WorkerID string `json:"worker_id"`
	Code     string `json:"code,omitempty"`
	Message  string `json:"message"`
}

// decodeWorkqueueBody decodes one workqueue request body, answering the 400
// itself on malformed input.
func decodeWorkqueueBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// authorizeWorkqueue gates a workqueue endpoint: worker and admin keys (and
// the anonymous principal when auth is disabled) may drive the lease API.
func (s *Service) authorizeWorkqueue(w http.ResponseWriter, r *http.Request, auditAction, objectRef string) bool {
	return s.authorize(w, r, auth.ActionUpdate, auth.Object{Type: auth.ObjectWorkqueue},
		auditAction, objectRef)
}

// handleAcquire leases the next queued job to the requesting worker: 200
// {granted:true, job, payload, lease bounds} when work is available, 200
// {granted:false} when the queue is empty or the service is draining. The
// lease transition (status, worker, attempt counter, expiry) is journaled
// with the payload before the grant is sent, so a frontend crash cannot
// forget an outstanding lease.
func (s *Service) handleAcquire(w http.ResponseWriter, r *http.Request) {
	if !s.authorizeWorkqueue(w, r, "workqueue.acquire", "") {
		return
	}
	var req AcquireRequest
	if !decodeWorkqueueBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("worker_id is required"))
		return
	}
	p := s.principal(r)
	// A degraded store cannot journal the lease transition, so no work is
	// handed out: the worker idles (granted=false) until the disk heals,
	// exactly as when the queue is empty.
	if s.degraded.Load() {
		writeJSON(w, http.StatusOK, LeaseGrant{Granted: false})
		return
	}
	s.mu.Lock()
	s.workerSeen[req.WorkerID] = s.now()
	var qj *queuedJob
	if !s.jobsClosed {
		qj = s.nextQueuedLocked()
	}
	if qj == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, LeaseGrant{Granted: false})
		return
	}
	// The payload stays in memory and in the journal while the lease is
	// live: a reclaim (or a frontend restart) must be able to re-run it.
	s.startAttemptLocked(qj, req.WorkerID)
	grant := LeaseGrant{
		Granted:         true,
		Job:             qj.Job,
		Payload:         qj.payload,
		LeaseExpiryUnix: qj.leaseExpiry.Unix(),
		LeaseTTLSeconds: s.leaseTTL.Seconds(),
	}
	s.mu.Unlock()
	s.auditEvent(p, "job.lease", grant.Job.ID, audit.OutcomeOK,
		fmt.Sprintf("worker=%s attempt=%d", req.WorkerID, grant.Job.Attempts))
	writeJSON(w, http.StatusOK, grant)
}

// nextQueuedLocked pops the queue's next runnable job for the pool or a
// lease, nil when the queue is empty, skipping ids whose job was evicted,
// already settled, or resolved through the dedup index. Callers must hold
// s.mu.
func (s *Service) nextQueuedLocked() *queuedJob {
	for len(s.queue) > 0 {
		id := s.queue[0]
		s.queue = s.queue[1:]
		if qj, ok := s.jobs[id]; ok && qj.Status == JobQueued && !s.resolveCommittedLocked(qj) {
			return qj
		}
	}
	return nil
}

// queueJobLocked appends id to the queue's tail and wakes an idle pool
// worker. Callers must hold s.mu.
func (s *Service) queueJobLocked(id string) {
	s.queue = append(s.queue, id)
	s.queueCond.Signal()
}

// startAttemptLocked hands qj out for one attempt — to the in-process pool
// (worker "") as running, or to a worker daemon as leased until leaseTTL
// passes without a heartbeat — and journals the transition with the payload
// before the work leaves the lock, so a frontend crash re-runs or reclaims
// it. Callers must hold s.mu.
func (s *Service) startAttemptLocked(qj *queuedJob, worker string) {
	qj.Attempts++
	qj.startedAt = s.now()
	qj.Status = JobRunning
	if worker != "" {
		qj.Status, qj.WorkerID, qj.leaseExpiry = JobLeased, worker, qj.startedAt.Add(s.leaseTTL)
	}
	s.journalJobLocked(qj, qj.payload)
}

// resolveCommittedLocked settles a job whose capture already has a stored
// analysis — the exactly-once guarantee: work that committed under an
// earlier lease must never be handed out or re-run again. Reports whether
// the job was settled. Callers must hold s.mu.
func (s *Service) resolveCommittedLocked(qj *queuedJob) bool {
	if qj.captureKey == "" {
		return false
	}
	e := s.dedup[qj.captureKey]
	if e == nil || e.analysisID == "" {
		return false
	}
	s.jobDoneLocked(qj, e.analysisID)
	s.evictJobsLocked()
	return true
}

// leasedJobLocked resolves a workqueue mutation's target: the job must exist
// and the requester must hold its current lease. The error cases answer
// themselves: 404 for an unknown (or evicted) id, 409 lease_lost when the
// job is not leased to this worker — the worker must abandon the attempt.
// Callers must hold s.mu.
func (s *Service) leasedJobLocked(w http.ResponseWriter, id, workerID string) (*queuedJob, bool) {
	qj, ok := s.jobs[id]
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("job %q not found", id))
		return nil, false
	}
	if qj.Status != JobLeased || qj.WorkerID != workerID {
		writeError(w, http.StatusConflict, CodeLeaseLost,
			fmt.Errorf("worker %q no longer holds the lease on %s (status %s)", workerID, id, qj.Status))
		return nil, false
	}
	return qj, true
}

// handleHeartbeat renews a lease: the expiry moves a full TTL out and the
// renewal is journaled, so a reclaim decision — on this process or the next
// one after a restart — always sees the latest renewal.
func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.authorizeWorkqueue(w, r, "workqueue.heartbeat", id) {
		return
	}
	var req HeartbeatRequest
	if !decodeWorkqueueBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workerSeen[req.WorkerID] = s.now()
	qj, ok := s.leasedJobLocked(w, id, req.WorkerID)
	if !ok {
		return
	}
	qj.leaseExpiry = s.now().Add(s.leaseTTL)
	s.journalJobLocked(qj, qj.payload)
	writeJSON(w, http.StatusOK, HeartbeatResponse{LeaseExpiryUnix: qj.leaseExpiry.Unix()})
}

// handleComplete commits a leased job's finished report: store, mark done,
// resolve the capture key. Completing an already-done job is idempotent (a
// worker retrying a torn response gets the stored analysis id), and the
// persist-then-commit discipline holds — a failed store leaves the lease
// live for the worker to retry.
func (s *Service) handleComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.authorizeWorkqueue(w, r, "workqueue.complete", id) {
		return
	}
	var req CompleteRequest
	if !decodeWorkqueueBody(w, r, &req) {
		return
	}
	p := s.principal(r)
	s.mu.Lock()
	s.workerSeen[req.WorkerID] = s.now()
	if qj, ok := s.jobs[id]; ok && qj.Status == JobDone {
		analysisID := qj.AnalysisID
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, CompleteResponse{AnalysisID: analysisID})
		return
	}
	qj, ok := s.leasedJobLocked(w, id, req.WorkerID)
	if !ok {
		s.mu.Unlock()
		return
	}
	analysisID, err := s.commitReportLocked(req.Report, qj.Owner, qj.captureKey, qj)
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	s.auditEvent(p, "job.complete", id, audit.OutcomeOK,
		fmt.Sprintf("worker=%s analysis=%s", req.WorkerID, analysisID))
	writeJSON(w, http.StatusOK, CompleteResponse{AnalysisID: analysisID})
}

// handleFail records a worker's failed attempt. Within the attempt budget
// the job goes back on the queue for another worker; at the budget it is
// quarantined as terminal poisoned. Either way the attempt lands in the
// job's history and the worker gets the updated job record back.
func (s *Service) handleFail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.authorizeWorkqueue(w, r, "workqueue.fail", id) {
		return
	}
	var req FailRequest
	if !decodeWorkqueueBody(w, r, &req) {
		return
	}
	if req.Code == "" {
		req.Code = CodeInternal
	}
	p := s.principal(r)
	s.mu.Lock()
	s.workerSeen[req.WorkerID] = s.now()
	qj, ok := s.leasedJobLocked(w, id, req.WorkerID)
	if !ok {
		s.mu.Unlock()
		return
	}
	action, detail := "job.fail", fmt.Sprintf("worker=%s attempt=%d code=%s", req.WorkerID, qj.Attempts, req.Code)
	if s.failAttemptLocked(qj, attemptFailed, req.Code, req.Message, false) == JobPoisoned {
		action = "job.quarantine"
	}
	job := qj.Job
	s.mu.Unlock()
	s.auditEvent(p, action, id, audit.OutcomeError, detail)
	writeJSON(w, http.StatusOK, job)
}

// workerReaper is the attempt-history and audit attribution of reaper
// decisions.
const workerReaper = "workqueue-reaper"

// startReaper launches the lease reaper, ticking a fraction of the TTL so
// an expired lease is noticed well within one TTL of lapsing.
func (s *Service) startReaper() {
	interval := s.leaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.reapLeases()
			}
		}
	}()
}

// reapLeases is one reaper tick: settle every lease that can no longer
// stand and sweep departed workers from the active-gauge map. Tests drive it
// directly with a pinned clock.
func (s *Service) reapLeases() {
	s.mu.Lock()
	events := s.reclaimLeasesLocked()
	now := s.now()
	for id, seen := range s.workerSeen {
		if now.Sub(seen) > 2*s.leaseTTL {
			delete(s.workerSeen, id)
		}
	}
	s.mu.Unlock()
	for _, e := range events {
		s.auditEvent(auth.Principal{Subject: workerReaper}, e.action, e.id, audit.OutcomeOK, e.detail)
	}
}

// reaperEvent is one lease decision for the audit trail.
type reaperEvent struct{ id, action, detail string }

// reclaimLeasesLocked settles the leases the reaper tick — or, at startup,
// the journal — hands it:
//
//   - a lease whose capture already committed resolves to done, expired or
//     not: the stored result stands (exactly-once), nothing re-runs;
//   - an expired lease ends its attempt as reclaimed (failAttemptLocked):
//     requeued within the attempt budget, quarantined past it;
//   - a valid lease stays with its holder.
//
// Reclaimed jobs rejoin the queue's tail. Callers must hold s.mu.
func (s *Service) reclaimLeasesLocked() []reaperEvent {
	var events []reaperEvent
	now := s.now()
	for _, qj := range s.jobs {
		if qj.Status != JobLeased {
			continue
		}
		worker := qj.WorkerID
		if s.resolveCommittedLocked(qj) {
			events = append(events, reaperEvent{qj.ID, "job.complete",
				fmt.Sprintf("worker=%s resolved to committed analysis", worker)})
			continue
		}
		if qj.leaseExpiry.After(now) {
			continue
		}
		s.metrics.LeaseExpirations++
		action := "job.reclaim"
		if s.failAttemptLocked(qj, attemptReclaimed, CodePoisoned, "lease expired", false) == JobPoisoned {
			action = "job.quarantine"
		}
		events = append(events, reaperEvent{qj.ID, action,
			fmt.Sprintf("worker=%s attempt=%d lease expired", worker, qj.Attempts)})
	}
	return events
}

// activeWorkersLocked counts workers seen on the workqueue API within the
// last two lease TTLs. Callers must hold s.mu (read or write).
func (s *Service) activeWorkersLocked() int {
	now := s.now()
	n := 0
	for _, seen := range s.workerSeen {
		if now.Sub(seen) <= 2*s.leaseTTL {
			n++
		}
	}
	return n
}
