package cloud

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
)

// Persistence for the analysis store and the async job journal. The paper's
// deployment stores results in the cloud "for a later access by the
// patient's practitioner"; a service restart must not lose them — and an
// *accepted* upload must not be lost either: the patient cannot re-bleed, so
// every async job is journaled (payload included) from the moment the queue
// takes it until it reaches a terminal state. Persistence is write-through:
// the in-memory maps remain the serving path, every mutation is mirrored as
// one checksummed document per analysis, job, or dedup entry through the
// Store backend (storage.go) — DiskStore under a state directory, MemStore
// or nothing otherwise.
//
// Loading is salvage-not-crash: a document that is unreadable, torn, fails
// its checksum, or lacks its identity is quarantined (with an audit event
// and the store_salvaged counter) and startup continues with every healthy
// document — one bad sector must not take the whole diagnostic record
// offline. StrictLoad restores the old refuse-to-start behavior.

// persistedAnalysis is the persisted document body.
type persistedAnalysis struct {
	ID     string `json:"id"`
	UserID string `json:"user_id,omitempty"`
	Owner  string `json:"owner,omitempty"`
	Report Report `json:"report"`
}

// persistAnalysis mirrors one analysis through the store (no-op without a
// backend). Callers must hold s.mu.
func (s *Service) persistAnalysis(id string, stored *storedAnalysis) error {
	if s.store == nil {
		return nil
	}
	doc := persistedAnalysis{ID: id, UserID: stored.UserID, Owner: stored.Owner, Report: stored.Report}
	body, err := encodeBodyExtras(doc, stored.extra)
	if err != nil {
		return fmt.Errorf("cloud: encoding %s: %w", id, err)
	}
	return s.persistPut(KindAnalysis, id, body, true)
}

// persistPut wraps a document body in the checksummed envelope, commits it
// through the store, and feeds the degraded-mode tracker (degraded.go): a
// success heals the service, and a failed required write — one whose error
// fails the request — flips it read-only once a probe confirms the failure.
func (s *Service) persistPut(kind DocKind, id string, body []byte, required bool) error {
	env, err := encodeEnvelope(kind, id, body)
	if err != nil {
		return fmt.Errorf("cloud: encoding %s: %w", id, err)
	}
	err = s.store.Put(kind, id, env)
	if err == nil || required {
		s.noteStoreWrite(err)
	}
	return err
}

// decodeStoredDoc unwraps one listed document into its typed record,
// returning the unknown body fields to preserve across a re-persist.
// Every failure mode — unreadable bytes, torn JSON, checksum mismatch, an
// envelope filed under the wrong kind or id — funnels into one reason the
// loader salvages (or, in strict mode, refuses) on.
func decodeStoredDoc(d Document, v any, known map[string]bool) (map[string]json.RawMessage, error) {
	if d.Err != nil {
		return nil, fmt.Errorf("unreadable document: %w", d.Err)
	}
	body, _, err := decodeEnvelope(d.Body, d.Kind, d.ID)
	if err != nil {
		return nil, err
	}
	return decodeBodyExtras(body, v, known)
}

// salvageDoc handles one rejected document at load time. Salvage mode (the
// default) quarantines it — audited, counted — and startup continues on the
// healthy remainder; strict mode (-salvage=off) refuses to start, exactly
// the old behavior.
func (s *Service) salvageDoc(d Document, reason error) error {
	if s.strictLoad {
		return fmt.Errorf("cloud: document %s: %v (strict mode refuses corrupt state; restart with salvage enabled to quarantine it)", d.Name, reason)
	}
	if err := s.store.Quarantine(d.Name, reason); err != nil {
		return err
	}
	s.metrics.StoreSalvaged++
	s.auditEvent(auth.Principal{Subject: storeActor}, "store.salvage", d.Name, audit.OutcomeOK, reason.Error())
	return nil
}

// persistedJob is the journal document body for one async job. The payload
// rides along until the job is terminal, so queued and running jobs can be
// re-run after a crash; terminal documents keep only the outcome a polling
// client needs.
type persistedJob struct {
	ID         string    `json:"id"`
	Status     JobStatus `json:"status"`
	AnalysisID string    `json:"analysis_id,omitempty"`
	ErrorCode  string    `json:"error_code,omitempty"`
	Error      string    `json:"error,omitempty"`
	// StartedAtUnix is when a worker picked the job up; recovery compares
	// it against the execution deadline so a job that was already over
	// budget when the process died comes back failed, not re-queued.
	StartedAtUnix int64 `json:"started_at_unix,omitempty"`
	// DoneAtUnix is the terminal-transition time, the retention clock.
	DoneAtUnix int64  `json:"done_at_unix,omitempty"`
	Payload    []byte `json:"payload,omitempty"`
	// CaptureKey is the idempotency key that owns the job, so a recovered
	// job still updates the dedup index when it finishes.
	CaptureKey string `json:"capture_key,omitempty"`
	// Owner is the submitting principal's subject, so recovery preserves
	// the tenant scope of the job and its eventual analysis.
	Owner string `json:"owner,omitempty"`
	// Attempts, WorkerID, LeaseExpiryUnix and History journal the lease
	// state, so a frontend restart reconciles an outstanding lease instead
	// of forgetting it (workqueue.go reclaimLeasesLocked).
	Attempts        int       `json:"attempts,omitempty"`
	WorkerID        string    `json:"worker_id,omitempty"`
	LeaseExpiryUnix int64     `json:"lease_expiry_unix,omitempty"`
	History         []Attempt `json:"history,omitempty"`
}

// jobFilePrefix distinguishes job journal documents from analysis documents
// in the shared state directory (job ids are "job-N", analyses "an-N").
const jobFilePrefix = "job-"

// persistJob journals one job's current state (no-op without a backend).
// payload is written only while the job is non-terminal; required marks the
// enqueue write, whose error fails the submission. Callers must hold s.mu.
func (s *Service) persistJob(qj *queuedJob, payload []byte, required bool) error {
	if s.store == nil {
		return nil
	}
	doc := persistedJob{
		ID:         qj.ID,
		Status:     qj.Status,
		AnalysisID: qj.AnalysisID,
		ErrorCode:  qj.ErrorCode,
		Error:      qj.Error,
		CaptureKey: qj.captureKey,
		Owner:      qj.Owner,
		Attempts:   qj.Attempts,
		WorkerID:   qj.WorkerID,
		History:    qj.History,
	}
	if !qj.startedAt.IsZero() {
		doc.StartedAtUnix = qj.startedAt.Unix()
	}
	if !qj.leaseExpiry.IsZero() {
		doc.LeaseExpiryUnix = qj.leaseExpiry.Unix()
	}
	if !qj.doneAt.IsZero() {
		doc.DoneAtUnix = qj.doneAt.Unix()
	}
	if !qj.Status.Terminal() {
		doc.Payload = payload
	}
	body, err := encodeBodyExtras(doc, qj.extra)
	if err != nil {
		return fmt.Errorf("cloud: encoding %s: %w", qj.ID, err)
	}
	return s.persistPut(KindJob, qj.ID, body, required)
}

// journalJobLocked is persistJob for mid-run transitions, where no HTTP
// caller can receive the error: a failed journal write leaves the previous
// document in place (the job simply re-runs after a crash — at-least-once)
// and is surfaced through the JobJournalErrors counter. Callers must hold
// s.mu.
func (s *Service) journalJobLocked(qj *queuedJob, payload []byte) {
	if err := s.persistJob(qj, payload, false); err != nil {
		s.metrics.JobJournalErrors++
	}
}

// deleteDocLocked removes a document through the store. A failed delete is
// counted (job_evict_errors) and remembered for re-attempt on the next
// retention sweep, so a transiently read-only volume cannot leak terminal
// records forever. Callers must hold s.mu.
func (s *Service) deleteDocLocked(kind DocKind, id string) {
	if s.store == nil {
		return
	}
	if err := s.store.Delete(kind, id); err != nil {
		s.metrics.JobEvictErrors++
		if s.pendingDeletes == nil {
			s.pendingDeletes = make(map[DocKind]map[string]bool)
		}
		if s.pendingDeletes[kind] == nil {
			s.pendingDeletes[kind] = make(map[string]bool)
		}
		s.pendingDeletes[kind][id] = true
		return
	}
	delete(s.pendingDeletes[kind], id)
}

// retryPendingDeletesLocked re-attempts earlier failed deletes. Runs at the
// top of every retention sweep; while the store is degraded the disk is
// known bad, so the retry waits for recovery instead of burning a syscall
// per request. The first failure aborts the sweep (counted once) — the
// volume is still refusing, the rest would fail the same way. Callers must
// hold s.mu.
func (s *Service) retryPendingDeletesLocked() {
	if s.store == nil || s.degraded.Load() {
		return
	}
	for kind, ids := range s.pendingDeletes {
		for id := range ids {
			if err := s.store.Delete(kind, id); err != nil {
				s.metrics.JobEvictErrors++
				return
			}
			delete(ids, id)
		}
	}
}

// loadJobs restores the job journal: terminal records come back for polling
// clients; queued and running jobs rejoin the queue (a job that was
// mid-analysis when the process died reruns from its journaled payload). It
// also advances the job id counter past every persisted document. Corrupt
// documents are salvaged (or, in strict mode, refuse startup).
func (s *Service) loadJobs() error {
	if s.store == nil {
		return nil
	}
	docs, err := s.store.List(KindJob)
	if err != nil {
		return err
	}
	for _, d := range docs {
		var doc persistedJob
		extra, reason := decodeStoredDoc(d, &doc, jobKnownKeys)
		if reason == nil && doc.ID == "" {
			reason = errors.New("document lacks an id")
		}
		if reason != nil {
			if err := s.salvageDoc(d, reason); err != nil {
				return err
			}
			continue
		}
		qj := &queuedJob{Job: Job{
			ID:         doc.ID,
			Status:     doc.Status,
			AnalysisID: doc.AnalysisID,
			ErrorCode:  doc.ErrorCode,
			Error:      doc.Error,
			Owner:      doc.Owner,
			Attempts:   doc.Attempts,
			WorkerID:   doc.WorkerID,
			History:    doc.History,
		}, captureKey: doc.CaptureKey, extra: extra}
		switch {
		case doc.Status.Terminal():
			qj.doneAt = time.Unix(doc.DoneAtUnix, 0)
			if doc.DoneAtUnix == 0 {
				qj.doneAt = s.now()
			}
		case doc.Status == JobLeased:
			// A live lease from the previous process: restore it intact.
			// reclaimLeasesLocked (called once the dedup index is loaded)
			// settles it — to the committed analysis, a clean re-enqueue, or
			// quarantine — so the job is never left stuck.
			qj.payload = doc.Payload
			qj.startedAt = time.Unix(doc.StartedAtUnix, 0)
			qj.leaseExpiry = time.Unix(doc.LeaseExpiryUnix, 0)
		case s.jobTimeout > 0 && doc.Status == JobRunning && doc.StartedAtUnix > 0 &&
			s.now().Sub(time.Unix(doc.StartedAtUnix, 0)) > s.jobTimeout:
			// The job was already past its execution deadline when the
			// process died; re-running it would just time out again, so it
			// recovers straight to terminal failure.
			qj.Status = JobFailed
			qj.ErrorCode = CodeDeadlineExceeded
			qj.Error = fmt.Sprintf("analysis exceeded the %s execution deadline", s.jobTimeout)
			qj.startedAt = time.Unix(doc.StartedAtUnix, 0)
			qj.doneAt = s.now()
			s.journalJobLocked(qj, nil)
			s.metrics.JobsFailed++
		default:
			qj.Status = JobQueued
			qj.payload = doc.Payload
			s.queue = append(s.queue, doc.ID)
		}
		s.jobs[doc.ID] = qj
		if n, err := jobIDNumber(doc.ID); err == nil && n > s.nextJobID {
			s.nextJobID = n
		}
	}
	// Recover in submission order so a restart preserves queue fairness.
	sort.Slice(s.queue, func(i, j int) bool {
		ni, _ := jobIDNumber(s.queue[i])
		nj, _ := jobIDNumber(s.queue[j])
		return ni < nj
	})
	s.metrics.JobsRecovered += int64(len(s.queue))
	return nil
}

// loadState restores analyses from the store into the in-memory maps and
// advances the id counter past every persisted document. Corrupt documents
// are salvaged (or, in strict mode, refuse startup).
func (s *Service) loadState() error {
	if s.store == nil {
		return nil
	}
	docs, err := s.store.List(KindAnalysis)
	if err != nil {
		return err
	}
	for _, d := range docs {
		var doc persistedAnalysis
		extra, reason := decodeStoredDoc(d, &doc, analysisKnownKeys)
		if reason == nil && doc.ID == "" {
			reason = errors.New("document lacks an id")
		}
		if reason != nil {
			if err := s.salvageDoc(d, reason); err != nil {
				return err
			}
			continue
		}
		s.analyses[doc.ID] = &storedAnalysis{Report: doc.Report, UserID: doc.UserID, Owner: doc.Owner, extra: extra}
		if doc.UserID != "" {
			s.byUser[doc.UserID] = append(s.byUser[doc.UserID], doc.ID)
		}
		if n, err := idNumber(doc.ID); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	return nil
}

// idNumber extracts the counter from an "an-N" analysis id.
func idNumber(id string) (int, error) {
	rest, ok := strings.CutPrefix(id, "an-")
	if !ok {
		return 0, errors.New("cloud: unrecognized analysis id")
	}
	return strconv.Atoi(rest)
}

// jobIDNumber extracts the counter from a "job-N" job id.
func jobIDNumber(id string) (int, error) {
	rest, ok := strings.CutPrefix(id, jobFilePrefix)
	if !ok {
		return 0, errors.New("cloud: unrecognized job id")
	}
	return strconv.Atoi(rest)
}

// lessAnalysisID orders analysis ids numerically (an-2 before an-10),
// falling back to lexical order for foreign ids.
func lessAnalysisID(a, b string) bool {
	na, erra := idNumber(a)
	nb, errb := idNumber(b)
	if erra != nil || errb != nil {
		return a < b
	}
	return na < nb
}

// sortAnalysisIDs sorts ids numerically in place.
func sortAnalysisIDs(ids []string) {
	sort.Slice(ids, func(i, j int) bool { return lessAnalysisID(ids[i], ids[j]) })
}
