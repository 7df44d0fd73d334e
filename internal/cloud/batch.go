package cloud

// Batched submission: POST /api/v1/analyses:batch accepts up to MaxBatchItems
// captures in one request and answers a per-item status envelope. A device
// fleet's spool flushes (phone.OfflineQueue) and bulk re-uploads pay one HTTP
// round trip, one auth resolution, and one admission decision per batch
// instead of per capture, while every capture keeps its own exactly-once
// guarantee: each item carries (or derives) its own idempotency key and rides
// the same dedup index as a single submission.
//
// Admission rules (DESIGN.md §10):
//   - The batch is weighed by its item count: the per-client rate limiter
//     charges one token per item up front, and an empty bucket rejects the
//     whole batch with 429 rate_limited before any item runs.
//   - Load shedding treats a batch as bulk work: it is admitted or shed as a
//     unit on the non-priority lane (single sync submits keep their
//     syncShedFactor priority), so batches degrade before interactive use.
//   - One tenant per batch: every item resolves to a single subject (the
//     item's owner field, defaulting to the caller's subject); a batch whose
//     items span two tenants is rejected whole with 400 invalid_request, and
//     a subject-scoped key naming a foreign tenant gets 403.
//   - Item failures are isolated: a payload that fails decode or analysis
//     (even by panicking) reports its error in its own result slot and the
//     remaining items still run.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"medsen/internal/audit"
	"medsen/internal/auth"
)

// MaxBatchItems caps one batch request. Batches beyond it are rejected with
// 413 — the client splits, exactly as it would for an oversized body.
const MaxBatchItems = 64

// BatchItem is one capture inside a batch submission.
type BatchItem struct {
	// IdempotencyKey is the item's dedup key; empty derives the payload's
	// content digest, exactly as a keyless single submission would.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Owner, when non-empty, attributes the item to a tenant subject
	// (clinic/admin bulk uploads on behalf of one patient). Defaults to the
	// caller's own subject. All items of a batch must resolve to the same
	// tenant.
	Owner string `json:"owner,omitempty"`
	// Payload is the zip-compressed capture (base64 in JSON).
	Payload []byte `json:"payload"`
}

// BatchRequest is the body of POST /api/v1/analyses:batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemError is the error detail of one failed batch item, mirroring the
// single-request error envelope codes.
type BatchItemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// BatchItemResult is one item's outcome. Status carries the HTTP status the
// item would have received as a single submission (201 stored, 200 deduped to
// an existing analysis, 4xx/5xx failed).
type BatchItemResult struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	ID     string          `json:"id,omitempty"`
	Report *Report         `json:"report,omitempty"`
	Error  *BatchItemError `json:"error,omitempty"`
}

// OK reports whether the item was stored or deduplicated to a stored
// analysis.
func (r BatchItemResult) OK() bool { return r.Status < 300 }

// BatchResponse is the per-item status envelope of a batch submission. The
// HTTP status of the response itself is 200 whenever the batch was admitted;
// per-item verdicts live in Results.
type BatchResponse struct {
	Results   []BatchItemResult `json:"results"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// rejectBatch counts and answers a whole-batch rejection.
func (s *Service) rejectBatch(w http.ResponseWriter, status int, code string, err error) {
	s.mu.Lock()
	s.metrics.BatchRejected++
	s.mu.Unlock()
	writeError(w, status, code, err)
}

func (s *Service) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admitMutation(w) {
		return
	}
	p := s.principal(r)
	if !s.authorize(w, r, auth.ActionCreate, auth.Object{Type: auth.ObjectAnalysis, Owner: p.Subject},
		"analysis.batch", "") {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.uploadLimit)
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.rejectBatch(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Errorf("batch exceeds the %d byte limit", tooBig.Limit))
			return
		}
		s.rejectBatch(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decoding batch: %w", err))
		return
	}
	n := len(req.Items)
	if n == 0 {
		s.rejectBatch(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("batch has no items"))
		return
	}
	if n > MaxBatchItems {
		s.rejectBatch(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			fmt.Errorf("batch has %d items, limit %d", n, MaxBatchItems))
		return
	}

	// Single-tenant rule: resolve every item's subject before any item runs,
	// so a mixed batch is rejected whole rather than half-applied.
	owner := req.Items[0].Owner
	if owner == "" {
		owner = p.Subject
	}
	for i := range req.Items {
		itemOwner := req.Items[i].Owner
		if itemOwner == "" {
			itemOwner = p.Subject
		}
		if itemOwner != owner {
			s.rejectBatch(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Errorf("mixed-tenant batch: item %d resolves to subject %q, batch to %q", i, itemOwner, owner))
			return
		}
	}
	// A subject-scoped key may only batch for itself; clinic/admin/anonymous
	// may act for any single tenant.
	if p.Subject != "" && owner != p.Subject {
		s.mu.Lock()
		s.metrics.BatchRejected++
		s.metrics.PermissionDenied++
		s.mu.Unlock()
		s.auditEvent(p, "analysis.batch", "", audit.OutcomeDenied,
			fmt.Sprintf("batch for foreign subject %q", owner))
		writeError(w, http.StatusForbidden, CodePermissionDenied,
			fmt.Errorf("key subject %q may not submit for subject %q", p.Subject, owner))
		return
	}

	// Admission: the batch weighs its item count against the rate limiter,
	// and rides the non-priority shedding lane as a unit.
	if s.limiter != nil {
		ok, wait := s.limiter.allowN(s.clientKey(r), n)
		if !ok {
			s.mu.Lock()
			s.metrics.RateLimited++
			s.metrics.BatchRejected++
			s.mu.Unlock()
			writeRetryAfter(w, wait)
			writeError(w, http.StatusTooManyRequests, CodeRateLimited,
				fmt.Errorf("batch of %d exceeds the per-client submit budget", n))
			return
		}
	}
	s.mu.Lock()
	shedAfter, shed := s.shedLocked(false)
	if shed {
		s.metrics.BatchRejected++
	}
	s.mu.Unlock()
	if shed {
		writeSubmitResult(w, shedResult(shedAfter))
		return
	}

	resp := BatchResponse{Results: s.submitBatchItems(req.Items, owner, p)}
	for _, res := range resp.Results {
		if res.OK() {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	s.mu.Lock()
	s.metrics.BatchRequests++
	s.metrics.BatchItems += int64(n)
	s.metrics.BatchItemErrors += int64(resp.Failed)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// batchItemError builds a failed item result.
func batchItemError(index, status int, code string, err error) BatchItemResult {
	return BatchItemResult{
		Index:  index,
		Status: status,
		Error:  &BatchItemError{Code: code, Message: err.Error()},
	}
}

// batchItemRun is one batch item on its way through submitBatchItems.
type batchItemRun struct {
	// key is the item's scoped capture key, "" when the item is invalid.
	key string
	// repeat marks a key that an earlier item of the batch claimed.
	repeat bool
	// claim is the up-front claim; status 0 owns the capture.
	claim submitResult
	// The owned capture's analysis, set before done is closed.
	report Report
	code   string
	err    error
	done   chan struct{}
}

// submitBatchItems runs a batch's items and answers one result per item,
// exactly as submitting them one after another would, in three steps:
//
//  1. Claim every item's key in item order, under one s.mu hold.
//  2. Decode and analyze the owned items, in item order, on
//     max(1, GOMAXPROCS−1) goroutines, each analysis serial.
//  3. Walk the items in item order on the handler goroutine, committing or
//     releasing each owned item as its analysis lands. Its fsyncs overlap
//     the analysis of the items after it.
//
// An item whose key repeats an earlier item's goes through submitInline at
// its turn: a dedup hit after a stored sibling, a fresh run after a failed
// one. So ids, statuses, reports, audit order and counters are the serial
// loop's. A claimed key answers a concurrent submission 409 until its item
// commits.
func (s *Service) submitBatchItems(items []BatchItem, owner string, p auth.Principal) []BatchItemResult {
	const auditAction = "analysis.batch_item"
	results := make([]BatchItemResult, len(items))
	runs := make([]batchItemRun, len(items))
	for i, item := range items {
		if len(item.Payload) == 0 {
			results[i] = batchItemError(i, http.StatusBadRequest, CodeInvalidRequest, errors.New("item has no payload"))
			continue
		}
		key, err := captureKeyFor(item.IdempotencyKey, item.Payload)
		if err != nil {
			results[i] = batchItemError(i, http.StatusBadRequest, CodeInvalidRequest, err)
			continue
		}
		runs[i].key = scopedCaptureKey(owner, key)
	}

	owned := make(chan int, len(items)) // every send happens before the first receive
	claimed := make(map[string]bool, len(items))
	s.mu.Lock()
	for i := range runs {
		r := &runs[i]
		switch {
		case r.key == "":
		case claimed[r.key]:
			r.repeat = true
		default:
			claimed[r.key] = true
			if r.claim = s.claimCaptureLocked(r.key, false); r.claim.status == 0 {
				r.done = make(chan struct{})
				owned <- i
			}
		}
	}
	s.mu.Unlock()
	close(owned)

	// Each analyzer runs its analyses serially: the batch spreads items, not
	// carriers, over the cores, and with the handler it runs GOMAXPROCS
	// goroutines. Parallel analyses inside parallel items would also take
	// the core a concurrent reader needs.
	cfg := s.cfg
	cfg.Workers = 1
	var analyzers sync.WaitGroup
	for range min(len(owned), max(1, runtime.GOMAXPROCS(0)-1)) {
		analyzers.Add(1)
		go func() {
			defer analyzers.Done()
			for i := range owned {
				r := &runs[i]
				r.report, r.code, r.err = analyzeUpload(items[i].Payload, cfg, s.analyze)
				close(r.done)
			}
		}()
	}

	for i := range runs {
		r := &runs[i]
		var res submitResult
		switch {
		case r.key == "":
			continue
		case r.repeat:
			res = s.submitInline(items[i].Payload, r.key, owner, p, auditAction, false)
		case r.done == nil:
			res = s.answerClaim(r.claim, p, auditAction)
		default:
			<-r.done
			res = s.settleInline(r.report, r.code, r.err, r.key, owner, p, auditAction)
		}
		if res.err != nil {
			results[i] = batchItemError(i, res.status, res.code, res.err)
		} else {
			results[i] = BatchItemResult{Index: i, Status: res.status, ID: res.id, Report: &res.report}
		}
	}
	analyzers.Wait()
	return results
}
