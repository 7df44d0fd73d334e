package cloud

// The steps of one capture's server-side journey, shared by its four entry
// points: the sync handler, the batch item loop, the in-process job pool and
// the lease-complete handler (DESIGN.md §11).

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
	"medsen/internal/csvio"
	"medsen/internal/lockin"
)

// AnalyzeUpload decompresses and analyzes one zip-compressed capture, the
// work every execution path runs, lease workers included. A panic becomes an
// internal error: a poisoned capture must fail its own request or job, never
// the serving goroutine or a worker slot. On failure code is the wire error
// code — invalid_request for an undecodable payload, unprocessable for a
// failed analysis, internal for a panic.
func AnalyzeUpload(payload []byte, cfg AnalysisConfig) (Report, string, error) {
	return analyzeUpload(payload, cfg, Analyze)
}

// analyzeUpload is AnalyzeUpload over the service's replaceable pipeline.
func analyzeUpload(payload []byte, cfg AnalysisConfig,
	analyze func(lockin.Acquisition, AnalysisConfig) (Report, error)) (report Report, code string, err error) {
	defer func() {
		if r := recover(); r != nil {
			report, code, err = Report{}, CodeInternal, fmt.Errorf("analysis panicked: %v", r)
		}
	}()
	// The decode buffer is recycled once the analysis is done: the report
	// carries copies of everything it needs, never the raw samples.
	buf := decodeBufPool.Get().(*csvio.DecodeBuffer)
	defer decodeBufPool.Put(buf)
	acq, err := csvio.DecompressAcquisitionBuffer(payload, buf)
	if err != nil {
		return Report{}, CodeInvalidRequest, err
	}
	report, err = analyze(acq, cfg)
	if err != nil {
		return Report{}, CodeUnprocessable, err
	}
	return report, "", nil
}

// submitResult is one submission's outcome for its handler to render. Inline
// (sync and batch): status 201 stored, 200 deduplicated, 409 in flight
// (location names a live owning job). Async: 202 with job, the new or owning
// job or a synthesized done one, located at its record or analysis. Either:
// 429 shed or queue full, or another 4xx/5xx failure; code and err are set
// from 400 up, retryAfter on 409 and 429.
type submitResult struct {
	status     int
	id         string
	report     Report
	job        *Job
	code       string
	err        error
	location   string
	retryAfter time.Duration
}

// shedResult is the 429 overloaded outcome of a shed submission.
func shedResult(after time.Duration) submitResult {
	return submitResult{status: http.StatusTooManyRequests, code: CodeOverloaded, retryAfter: after,
		err: errors.New("estimated queue wait exceeds the shedding limit; retry later")}
}

// claimCaptureLocked resolves key for an inline submission: a stored or
// in-flight capture answers from the index; a new one is shed on the
// priority lane when shed is set, else reserved with a pending entry and
// answered with status 0 — the caller then owns the capture and must commit
// or release it. Callers must hold s.mu.
func (s *Service) claimCaptureLocked(key string, shed bool) submitResult {
	analysisID, job, out := s.lookupCaptureLocked(key)
	switch out {
	case claimDone:
		return submitResult{status: http.StatusOK, id: analysisID, report: s.analyses[analysisID].Report}
	case claimInFlight, claimJob:
		err, location := errors.New("an identical capture is already being analyzed; retry for its result"), ""
		if job.ID != "" {
			err, location = fmt.Errorf("an identical capture is owned by job %s", job.ID), "/api/v1/jobs/"+job.ID
		}
		return submitResult{status: http.StatusConflict, code: CodeDuplicateInFlight, err: err,
			location: location, retryAfter: retryAfterSeconds * time.Second}
	}
	if shed {
		if after, ok := s.shedLocked(true); ok {
			return shedResult(after)
		}
	}
	s.insertDedupLocked(&dedupEntry{key: key, pending: true})
	return submitResult{}
}

// submitInline runs one capture through claim → analyze → commit-or-release
// on the caller's goroutine: the sync handler sheds each capture, and the
// batch passes shed=false for an item that repeats an earlier item's key,
// because it shed the batch as a whole. Stored, deduplicated (detail
// "dedup") and failed (detail: the error code) outcomes are audited under
// auditAction. A failed analysis or store counts as an upload error and
// releases the reservation, so a retry runs the capture.
func (s *Service) submitInline(payload []byte, key, owner string, p auth.Principal, auditAction string, shed bool) submitResult {
	s.mu.Lock()
	res := s.claimCaptureLocked(key, shed)
	s.mu.Unlock()
	if res.status != 0 {
		return s.answerClaim(res, p, auditAction)
	}
	report, code, err := analyzeUpload(payload, s.cfg, s.analyze)
	return s.settleInline(report, code, err, key, owner, p, auditAction)
}

// answerClaim returns a claim that the index answered, auditing a dedup hit.
func (s *Service) answerClaim(res submitResult, p auth.Principal, auditAction string) submitResult {
	if res.status == http.StatusOK {
		s.auditEvent(p, auditAction, res.id, audit.OutcomeOK, "dedup")
	}
	return res
}

// settleInline ends an owned inline capture once its analysis has landed:
// it commits the report, or releases the key when the analysis or the store
// failed, then audits the outcome.
func (s *Service) settleInline(report Report, code string, err error, key, owner string, p auth.Principal, auditAction string) submitResult {
	var id string
	s.mu.Lock()
	if err == nil {
		code = CodeInternal
		id, err = s.commitReportLocked(report, owner, key, nil)
	}
	if err != nil {
		s.releaseCaptureLocked(key, "")
		s.metrics.UploadErrors++
	}
	s.mu.Unlock()
	if err != nil {
		s.auditEvent(p, auditAction, "", audit.OutcomeError, code)
		status := http.StatusInternalServerError
		switch code {
		case CodeInvalidRequest:
			status = http.StatusBadRequest
		case CodeUnprocessable:
			status = http.StatusUnprocessableEntity
		}
		return submitResult{status: status, code: code, err: err}
	}
	s.auditEvent(p, auditAction, id, audit.OutcomeOK, "")
	return submitResult{status: http.StatusCreated, id: id, report: report}
}

// commitReportLocked is the commit every path ends in: it stores report under
// owner and resolves key to the new analysis; for a job-owned capture (qj
// non-nil) it also records the completed attempt, moves the job to done and
// sweeps retention. A failed store changes nothing, and the caller decides
// what the failure means: a released key, a failed job, or a lease left live
// for the worker's retry. Callers must hold s.mu.
func (s *Service) commitReportLocked(report Report, owner, key string, qj *queuedJob) (string, error) {
	id, err := s.storeReportLocked(report, owner)
	if err != nil {
		return "", err
	}
	if qj != nil {
		worker := qj.WorkerID
		if worker == "" {
			worker = workerInProcess
		}
		qj.History = append(qj.History, Attempt{
			Worker: worker, StartedAtUnix: qj.startedAt.Unix(), Outcome: attemptCompleted,
		})
		s.jobDoneLocked(qj, id)
		s.queueEst.observe(qj.doneAt.Sub(qj.startedAt))
	}
	if key != "" {
		s.completeCaptureLocked(key, id)
	}
	if qj != nil {
		s.evictJobsLocked()
	}
	return id, nil
}

// storeReportLocked assigns an analysis id, stores and persists the report
// under its owner principal, and counts the upload. Persistence happens
// before any in-memory commit: a failed write must not leave a ghost
// analysis readable at GET /api/v1/analyses/{id} or inflate the upload
// counter. Callers must hold s.mu.
func (s *Service) storeReportLocked(report Report, owner string) (string, error) {
	id := "an-" + strconv.Itoa(s.nextID+1)
	stored := &storedAnalysis{Report: report, Owner: owner}
	if err := s.persistAnalysis(id, stored); err != nil {
		return "", err
	}
	s.nextID++
	s.metrics.Uploads++
	s.analyses[id] = stored
	return id, nil
}

// jobDoneLocked moves qj to done on analysisID and journals it: the commit of
// a job-owned capture, or a lease settled on a capture that already
// committed. Callers must hold s.mu.
func (s *Service) jobDoneLocked(qj *queuedJob, analysisID string) {
	qj.Status = JobDone
	qj.AnalysisID = analysisID
	qj.WorkerID = ""
	qj.payload = nil
	qj.leaseExpiry = time.Time{}
	qj.doneAt = s.now()
	s.metrics.JobsCompleted++
	s.journalJobLocked(qj, nil)
}

// failAttemptLocked ends qj's current attempt without a commit — outcome is
// attemptFailed or attemptReclaimed, detail its message — and decides the
// job's fate, in the one place every path makes that decision:
//
//   - noRetry (the in-process pool, which never requeues) → failed with
//     code, an upload error;
//   - attempt budget spent → quarantined as poisoned with code;
//   - otherwise → queued again for the next worker.
//
// A failed or poisoned job releases its capture key, so a fresh submission
// may run the capture again. Returns the job's new status. Callers must hold
// s.mu.
func (s *Service) failAttemptLocked(qj *queuedJob, outcome, code, detail string, noRetry bool) JobStatus {
	worker := qj.WorkerID
	if worker == "" {
		worker = workerInProcess
	}
	qj.History = append(qj.History, Attempt{
		Worker: worker, StartedAtUnix: qj.startedAt.Unix(), Outcome: outcome, Detail: detail,
	})
	qj.WorkerID = ""
	qj.leaseExpiry = time.Time{}
	now := s.now()
	switch {
	case noRetry:
		qj.Status, qj.ErrorCode, qj.Error = JobFailed, code, detail
		s.metrics.JobsFailed++
		s.metrics.UploadErrors++
	case s.maxAttempts > 0 && qj.Attempts >= s.maxAttempts:
		reason := fmt.Sprintf("attempt budget exhausted after %d attempts; last error: %s", qj.Attempts, detail)
		qj.Status, qj.ErrorCode, qj.Error = JobPoisoned, code, reason
		qj.History = append(qj.History, Attempt{
			Worker: workerReaper, StartedAtUnix: now.Unix(), Outcome: attemptQuarantined, Detail: reason,
		})
		s.metrics.JobsPoisoned++
	default:
		qj.Status = JobQueued
		qj.startedAt = time.Time{}
		if outcome == attemptReclaimed {
			s.metrics.JobsReclaimed++
		}
		s.queueJobLocked(qj.ID)
		s.journalJobLocked(qj, qj.payload)
		return JobQueued
	}
	qj.payload = nil
	qj.doneAt = now
	if !qj.startedAt.IsZero() {
		s.queueEst.observe(qj.doneAt.Sub(qj.startedAt))
	}
	if qj.captureKey != "" {
		s.releaseCaptureLocked(qj.captureKey, qj.ID)
	}
	s.journalJobLocked(qj, nil)
	s.evictJobsLocked()
	return qj.Status
}
