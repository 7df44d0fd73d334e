package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
)

// Async analysis jobs. A 3-hour, 8-carrier capture takes real CPU time to
// detrend and feature-extract; holding the upload connection open for the
// whole analysis would pin one server thread per device and collapse under
// fleet load. POST /api/v1/analyses?async=1 instead enqueues the payload on
// a bounded queue and answers 202 with a job resource the caller polls at
// GET /api/v1/jobs/{id}. A fixed worker pool drains the queue; when it is
// full the service answers 429 with a Retry-After hint rather than buffering
// without bound (graceful degradation under overload). The synchronous path
// remains available for small captures.
//
// Jobs are durable when the service has a StateDir: each accepted job is
// journaled (payload included) before the 202 is sent, every lifecycle
// transition is mirrored to disk, and NewService re-enqueues any job that
// was queued or running when the previous process died — an accepted upload
// is never lost, and a poller that held a job id across the restart gets
// the recovered state instead of a 404. Terminal job records are retained
// in memory (and on disk) only for the configured TTL/count bounds, then
// evicted; Shutdown lets in-flight analyses finish within a deadline while
// still-queued jobs stay journaled for the next process.

// JobStatus is the lifecycle state of an async analysis job.
type JobStatus string

// Job lifecycle: queued → running (in-process worker) or leased (external
// worker daemon) → done | failed | poisoned. A leased job whose lease expires
// goes back to queued with its attempt counter bumped; one that exhausts the
// attempt budget is quarantined as poisoned (workqueue.go).
const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobLeased   JobStatus = "leased"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobPoisoned JobStatus = "poisoned"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool { return s == JobDone || s == JobFailed || s == JobPoisoned }

// parseJobStatus validates a ?status= filter value.
func parseJobStatus(v string) (JobStatus, error) {
	switch st := JobStatus(v); st {
	case JobQueued, JobRunning, JobLeased, JobDone, JobFailed, JobPoisoned:
		return st, nil
	}
	return "", fmt.Errorf("unknown job status %q (want queued, running, leased, done, failed or poisoned)", v)
}

// Job is the wire representation of an async analysis job.
type Job struct {
	// ID names the job ("job-N").
	ID string `json:"id"`
	// Status is the current lifecycle state.
	Status JobStatus `json:"status"`
	// AnalysisID is the stored analysis once Status is "done".
	AnalysisID string `json:"analysis_id,omitempty"`
	// ErrorCode and Error describe the failure once Status is "failed";
	// ErrorCode uses the same vocabulary as the error envelope.
	ErrorCode string `json:"error_code,omitempty"`
	Error     string `json:"error,omitempty"`
	// Owner is the principal subject that submitted the job ("" when
	// submitted anonymously or by a subject-less clinic/admin key); the
	// stored analysis inherits it, and RBAC scopes owner-role reads to it.
	Owner string `json:"owner,omitempty"`
	// Attempts counts executions handed out for this job (lease grants plus
	// in-process pickups). A job reclaimed or failed Attempts ≥ max-attempts
	// times is quarantined as poisoned.
	Attempts int `json:"attempts,omitempty"`
	// WorkerID names the worker holding the current lease (leased jobs only).
	WorkerID string `json:"worker_id,omitempty"`
	// History is the full attempt trail — who ran the job, when, and how each
	// attempt ended — kept on the record so a quarantined job carries its own
	// post-mortem.
	History []Attempt `json:"history,omitempty"`
}

// Attempt is one entry of a job's execution history.
type Attempt struct {
	// Worker identifies who ran the attempt (a worker daemon id, or
	// "in-process" for the built-in pool).
	Worker string `json:"worker"`
	// StartedAtUnix is when the attempt was handed out.
	StartedAtUnix int64 `json:"started_at_unix"`
	// Outcome is how it ended: "completed", "failed", "reclaimed" (lease
	// expired), or "quarantined".
	Outcome string `json:"outcome"`
	// Detail carries the failure message or reclaim reason.
	Detail string `json:"detail,omitempty"`
}

// Attempt outcomes.
const (
	attemptCompleted   = "completed"
	attemptFailed      = "failed"
	attemptReclaimed   = "reclaimed"
	attemptQuarantined = "quarantined"
)

// workerInProcess is the attempt-history attribution of the built-in pool.
const workerInProcess = "in-process"

// queuedJob is the service-internal job record: the wire Job plus the
// pending payload (released as soon as the worker picks it up) and the
// retention clock.
type queuedJob struct {
	Job
	payload []byte
	// captureKey is the idempotency key that owns this job ("" for jobs
	// enqueued outside the dedup path); completion and failure mirror the
	// outcome into the index under it.
	captureKey string
	// startedAt is when a worker picked the job up; the execution
	// deadline — including the recovered-across-a-restart case — is
	// measured from it.
	startedAt time.Time
	// leaseExpiry is when the current lease lapses (leased jobs only); the
	// reaper reclaims the job once s.now() passes it. Heartbeats push it out.
	leaseExpiry time.Time
	// doneAt is when the job reached a terminal status; retention evicts
	// terminal records doneAt+TTL after it.
	doneAt time.Time
	// extra preserves journal-document fields written by a newer binary, so
	// re-journaling this record never strips them (document.go).
	extra map[string]json.RawMessage
}

// Default retention bounds for terminal job records. Without them the jobs
// map grows forever under fleet load — every completed job would pin its
// record (and journal document) until the process died.
const (
	defaultJobTTL          = time.Hour
	defaultMaxTerminalJobs = 1024
)

// startJobWorkers launches the in-process pool. Called once from
// NewService, after any journaled jobs have been re-enqueued.
func (s *Service) startJobWorkers() {
	for i := 0; i < s.workers; i++ {
		s.poolWG.Add(1)
		go func() {
			defer s.poolWG.Done()
			for s.runNextJob() {
			}
		}()
	}
}

// Close stops the job workers after draining already-queued jobs, then the
// reaper and the recovery prober. Further async submissions are rejected.
// It is safe to call more than once and after Shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	s.jobsClosed = true
	s.queueCond.Broadcast()
	s.mu.Unlock()
	s.poolWG.Wait()
	s.halt()
}

// Shutdown stops accepting submissions and waits for in-flight analyses to
// finish, up to the context deadline. Unlike Close it does not drain the
// backlog: jobs no worker has picked up stay journaled under StateDir and
// are re-enqueued by the next NewService over the same directory. A
// deadline error means some analysis was still running when the context
// expired; its journal entry makes it recoverable too.
func (s *Service) Shutdown(ctx context.Context) error {
	s.halt()
	done := make(chan struct{})
	go func() {
		s.poolWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cloud: shutdown: %w", ctx.Err())
	}
}

// halt rejects further submissions, closes the stop channel (once), waking
// idle pool workers so they exit, and waits for the reaper and the recovery
// prober to return.
func (s *Service) halt() {
	s.mu.Lock()
	s.jobsClosed = true
	if !s.stopped {
		s.stopped = true
		close(s.stop)
		s.queueCond.Broadcast()
	}
	s.mu.Unlock()
	s.bgWG.Wait()
}

// enqueueJob registers a job for the payload, journals it, and appends it to
// the queue, auditing every 202 as job.create or job.dedup under p, whose
// subject owns the job and its analysis.
func (s *Service) enqueueJob(payload []byte, key string, p auth.Principal) submitResult {
	s.mu.Lock()
	res, action, object := s.enqueueJobLocked(payload, key, p.Subject)
	s.mu.Unlock()
	if action != "" {
		s.auditEvent(p, action, object, audit.OutcomeOK, "")
	}
	return res
}

// enqueueJobLocked is enqueueJob's decision, returning the audit action and
// object of a 202 (action "" otherwise). The idempotency index is consulted
// first, under the same lock, so concurrent duplicates cannot both enqueue:
// a key that owns a live job answers that job, one whose job record is gone
// but whose analysis is stored a synthesized done job, and one reserved by
// an in-flight sync analysis 409; a key whose owning job failed may re-run.
// A fresh job is shed past the queue-wait limit and refused 429 queue_full
// while the queue holds queueDepth jobs, recovered and reclaimed ones
// included. Only a journaled job joins the queue. key "" bypasses the index.
// Callers must hold s.mu.
func (s *Service) enqueueJobLocked(payload []byte, key, owner string) (submitResult, string, string) {
	if s.jobsClosed {
		return submitResult{status: http.StatusServiceUnavailable, code: CodeUnavailable,
			err: errors.New("cloud: service is shutting down")}, "", ""
	}
	s.evictJobsLocked()
	analysisID, live, out := s.lookupCaptureLocked(key)
	switch {
	case out == claimInFlight:
		return submitResult{status: http.StatusConflict, code: CodeDuplicateInFlight,
			err:        errors.New("cloud: an identical capture is already being analyzed"),
			retryAfter: retryAfterSeconds * time.Second}, "", ""
	case live.ID != "":
		return submitResult{status: http.StatusAccepted, job: &live, location: "/api/v1/jobs/" + live.ID},
			"job.dedup", live.ID
	case out == claimDone:
		// The owning job record was evicted (or the capture came in
		// synchronously) but its analysis is stored: a synthesized done job
		// lets the caller skip polling, located at the analysis itself.
		return submitResult{status: http.StatusAccepted, job: &Job{Status: JobDone, AnalysisID: analysisID},
			location: "/api/v1/analyses/" + analysisID}, "job.dedup", analysisID
	}
	// A duplicate creates no new work, so only fresh admissions are shed.
	if after, shed := s.shedLocked(false); shed {
		return shedResult(after), "", ""
	}
	// The id is committed only once the queue has room, so 429 rejections
	// leave no gaps in the sequence.
	if len(s.queue) >= s.queueDepth {
		s.metrics.JobsRejected++
		return submitResult{status: http.StatusTooManyRequests, code: CodeQueueFull,
			err:        fmt.Errorf("job queue is at capacity (%d queued)", s.queueDepth),
			retryAfter: retryAfterSeconds * time.Second}, "", ""
	}
	s.nextJobID++
	id := jobFilePrefix + strconv.Itoa(s.nextJobID)
	qj := &queuedJob{Job: Job{ID: id, Status: JobQueued, Owner: owner}, payload: payload, captureKey: key}
	if err := s.persistJob(qj, payload, true); err != nil {
		// The job was never registered: the id stays burned, no queue slot
		// is taken, and no dedup entry exists to block the caller's retry.
		// The caller sees the error instead of a 202 for a job that could
		// not be made durable.
		return submitResult{status: http.StatusInternalServerError, code: CodeInternal, err: err}, "", ""
	}
	s.jobs[id] = qj
	s.queueJobLocked(id)
	if key != "" {
		e := &dedupEntry{key: key, jobID: id}
		s.insertDedupLocked(e)
		s.journalDedupLocked(e)
	}
	s.metrics.JobsEnqueued++
	job := qj.Job
	return submitResult{status: http.StatusAccepted, job: &job, location: "/api/v1/jobs/" + id}, "job.create", id
}

// runNextJob is one turn of a pool worker: it takes the next job through
// the pickup acquire uses too (nextQueuedLocked, startAttemptLocked),
// waiting on queueCond while the queue is empty, and runs it with the same
// analyze and commit steps as every other path, plus the execution deadline,
// which turns a runaway analysis into a terminal "deadline_exceeded" failure
// instead of a silently pinned worker slot. Any failure is terminal for an
// in-process job (failAttemptLocked). It reports false when the worker must
// exit: once the service is stopped (Shutdown), leaving the backlog
// journaled, or closed (Close) with the queue drained.
func (s *Service) runNextJob() bool {
	s.mu.Lock()
	var qj *queuedJob
	for !s.stopped {
		if qj = s.nextQueuedLocked(); qj != nil || s.jobsClosed {
			break
		}
		s.queueCond.Wait()
	}
	if qj == nil {
		s.mu.Unlock()
		return false
	}
	s.startAttemptLocked(qj, "")
	// The pool never requeues, so the payload leaves memory here; the journal
	// keeps it until the job is terminal so a crash mid-analysis reruns it.
	payload := qj.payload
	qj.payload = nil
	gate := s.jobGate
	s.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		default:
			select {
			case <-gate:
			case <-s.stop:
				// Shutting down while gated: leave the journal as-is so
				// the job is recovered by the next process.
				return false
			}
		}
	}

	type analysisOutcome struct {
		report Report
		code   string
		err    error
	}
	outCh := make(chan analysisOutcome, 1)
	go func() {
		report, code, err := analyzeUpload(payload, s.cfg, s.analyze)
		outCh <- analysisOutcome{report, code, err}
	}()
	// Without a job timeout the deadline channel stays nil and never fires.
	var deadline <-chan time.Time
	if s.jobTimeout > 0 {
		timer := time.NewTimer(s.jobTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	var out analysisOutcome
	select {
	case out = <-outCh:
	case <-deadline:
		// The runaway analysis keeps its goroutine until it returns on its
		// own; its outcome lands in the buffered channel unread.
		out.code = CodeDeadlineExceeded
		out.err = fmt.Errorf("analysis exceeded the %s execution deadline", s.jobTimeout)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if out.err == nil {
		out.code = CodeInternal
		_, out.err = s.commitReportLocked(out.report, qj.Owner, qj.captureKey, qj)
	}
	if out.err != nil {
		s.failAttemptLocked(qj, attemptFailed, out.code, out.err.Error(), true)
	}
	return true
}

// evictJobsLocked drops terminal job records past the TTL or in excess of
// the count bound (oldest terminal first), deleting their journal documents
// so they stay gone across restarts. Queued and running jobs are never
// evicted. Callers must hold s.mu.
func (s *Service) evictJobsLocked() {
	// Deletes that failed on earlier sweeps get their re-attempt first, so
	// the on-disk journal converges back to the in-memory retention state
	// once the volume heals.
	s.retryPendingDeletesLocked()
	if s.jobTTL <= 0 && s.maxTerminalJobs <= 0 {
		return
	}
	now := s.now()
	var terminal []*queuedJob
	for _, qj := range s.jobs {
		if qj.Status.Terminal() {
			terminal = append(terminal, qj)
		}
	}
	sort.Slice(terminal, func(i, j int) bool {
		if !terminal[i].doneAt.Equal(terminal[j].doneAt) {
			return terminal[i].doneAt.Before(terminal[j].doneAt)
		}
		ni, _ := jobIDNumber(terminal[i].ID)
		nj, _ := jobIDNumber(terminal[j].ID)
		return ni < nj
	})
	evict := 0
	if s.jobTTL > 0 {
		for evict < len(terminal) && now.Sub(terminal[evict].doneAt) > s.jobTTL {
			evict++
		}
	}
	if s.maxTerminalJobs > 0 && len(terminal)-evict > s.maxTerminalJobs {
		evict = len(terminal) - s.maxTerminalJobs
	}
	for _, qj := range terminal[:evict] {
		delete(s.jobs, qj.ID)
		s.deleteDocLocked(KindJob, qj.ID)
		s.metrics.JobsEvicted++
	}
}

// retryAfterSeconds is the backpressure hint returned with 429 responses.
const retryAfterSeconds = 1

// handleGetJob serves one job's current state. Expired terminal records are
// evicted first, so a stale id answers 404 exactly as it would after a
// restart past the TTL.
func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	s.evictJobsLocked()
	qj, ok := s.jobs[id]
	var job Job
	if ok {
		job = qj.Job
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("job %q not found", id))
		return
	}
	if !s.authorize(w, r, auth.ActionRead, auth.Object{Type: auth.ObjectJob, Owner: job.Owner},
		"job.read", id) {
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleListJobs serves the job listing, newest-id last, with an optional
// ?status= filter and the standard pagination parameters.
func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	var filter JobStatus
	if v := r.URL.Query().Get("status"); v != "" {
		filter, err = parseJobStatus(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
	}
	// Scope-filtered like the analyses listing: rows an owner key could not
	// GET are omitted, not 403'd.
	p := s.principal(r)
	s.mu.Lock()
	s.evictJobsLocked()
	jobs := make([]Job, 0, len(s.jobs))
	for _, qj := range s.jobs {
		if filter != "" && qj.Status != filter {
			continue
		}
		if !auth.CanRead(p, auth.ObjectJob, qj.Owner) {
			continue
		}
		jobs = append(jobs, qj.Job)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool {
		ni, erri := jobIDNumber(jobs[i].ID)
		nj, errj := jobIDNumber(jobs[j].ID)
		if erri != nil || errj != nil {
			return jobs[i].ID < jobs[j].ID
		}
		return ni < nj
	})
	jobs = paginate(w, jobs, limit, offset)
	writeJSON(w, http.StatusOK, map[string][]Job{"jobs": jobs})
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form —
// delta-seconds or an HTTP-date (proxies commonly rewrite one into the
// other) — returning 0 when absent, malformed, or already past.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := time.Until(t); d > 0 {
		return d
	}
	return 0
}
