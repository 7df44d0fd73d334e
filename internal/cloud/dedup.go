package cloud

// Exactly-once ingestion. Every retry seam in the system — cloud.Client
// re-sending a POST, an OfflineQueue replay after a crash, a response torn
// mid-body by the network — can deliver the same capture twice, and a
// re-analyzed duplicate double-counts a patient's diagnostic record. The
// service therefore keys every upload by a capture key — the client's
// Idempotency-Key header, falling back to the SHA-256 digest of the payload
// — and keeps an index from key to the work it owns. A duplicate of
// completed work returns the original analysis; a duplicate of in-flight
// work returns the owning job (async) or a 409 duplicate_in_flight the
// client retries (sync). With a StateDir the index is journaled, so replays
// across a restart dedup too.
//
// The guarantee is exactly-once *success* on top of at-least-once attempts:
// a capture whose analysis failed terminally releases its key so a retry can
// run it again, and a synchronous reservation lives only in memory — if the
// process dies mid-analysis the client's retry re-runs the capture.

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
)

// CaptureKey returns the canonical content-derived idempotency key for a
// compressed capture — the same key the service derives when a submission
// carries no Idempotency-Key header. Two captures share a key only if they
// are byte-identical, which for encrypted uploads means the same capture.
func CaptureKey(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// maxIdempotencyKeyLen bounds client-supplied keys: the key is stored and
// journaled per capture, so an adversarial header must not become a memory
// or disk amplifier.
const maxIdempotencyKeyLen = 200

// captureKeyFor picks the dedup key for an upload: the client's explicit
// Idempotency-Key header when present, else the payload digest.
func captureKeyFor(header string, payload []byte) (string, error) {
	if header == "" {
		return CaptureKey(payload), nil
	}
	if len(header) > maxIdempotencyKeyLen {
		return "", fmt.Errorf("Idempotency-Key longer than %d bytes", maxIdempotencyKeyLen)
	}
	return header, nil
}

// defaultMaxDedupEntries caps the index; completed entries past it are
// evicted oldest-first, after which a very late replay of an ancient capture
// would re-run — at-least-once, never lost.
const defaultMaxDedupEntries = 65536

// dedupEntry maps one capture key to the work that owns it.
type dedupEntry struct {
	key string
	// jobID is the owning async job, analysisID the stored result once the
	// capture succeeded. A failed job deletes its entry (retries may re-run
	// the capture); a done job keeps it past the job record's eviction.
	jobID      string
	analysisID string
	// seq orders entries for count-bound eviction.
	seq int64
	// pending marks a synchronous analysis in flight. Pending reservations
	// are never journaled: they live exactly as long as the request that
	// took them.
	pending bool
}

// claimOutcome is what a capture key resolves to in the index.
type claimOutcome int

const (
	// claimNew: nothing owns the capture; the caller may run it.
	claimNew claimOutcome = iota
	// claimDone: the capture already has a stored analysis.
	claimDone
	// claimInFlight: a synchronous analysis of the capture is running.
	claimInFlight
	// claimJob: a live async job owns the capture.
	claimJob
)

// lookupCaptureLocked resolves what key owns, for every submission path,
// and counts a dedup hit when something does. out ranks a stored analysis
// first, then a pending synchronous reservation, then a live job (one not
// failed or poisoned); job is set whenever the owning job is live, even
// behind a stored analysis, so the async path can answer with the job record
// ahead of the analysis. A key whose job failed or vanished without a stored
// analysis resolves to claimNew: a retry may legitimately re-run the
// capture. Callers must hold s.mu.
func (s *Service) lookupCaptureLocked(key string) (analysisID string, job Job, out claimOutcome) {
	e := s.dedup[key]
	if e == nil {
		return "", Job{}, claimNew
	}
	if qj := s.jobs[e.jobID]; qj != nil && qj.Status != JobFailed && qj.Status != JobPoisoned {
		job = qj.Job
	}
	switch {
	case e.analysisID != "":
		out = claimDone
	case e.pending:
		out = claimInFlight
	case job.ID != "":
		out = claimJob
	default:
		return "", Job{}, claimNew
	}
	s.metrics.DedupHits++
	return e.analysisID, job, out
}

// releaseCaptureLocked drops the claim a failed attempt holds on key — a
// pending synchronous reservation (jobID "") or jobID's ownership — so a
// retry of the capture may run: the index guarantees exactly-once success,
// not at-most-once attempts. A stored analysis is never released. Callers
// must hold s.mu.
func (s *Service) releaseCaptureLocked(key, jobID string) {
	if e := s.dedup[key]; e != nil && e.jobID == jobID && e.analysisID == "" {
		delete(s.dedup, key)
		if jobID != "" {
			s.removeDedupDocLocked(key)
		}
	}
}

// completeCaptureLocked records the stored analysis for a capture key and
// journals the entry. Callers must hold s.mu.
func (s *Service) completeCaptureLocked(key, analysisID string) {
	e := s.dedup[key]
	if e == nil {
		e = &dedupEntry{key: key}
		s.insertDedupLocked(e)
	}
	e.pending = false
	e.analysisID = analysisID
	s.journalDedupLocked(e)
}

// insertDedupLocked registers an entry and enforces the count bound.
// Callers must hold s.mu.
func (s *Service) insertDedupLocked(e *dedupEntry) {
	s.dedupSeq++
	e.seq = s.dedupSeq
	s.dedup[e.key] = e
	s.dedupOrder.push(e, s.dedup)
	s.evictDedupLocked()
}

// evictDedupLocked drops the oldest completed entries beyond the count
// bound. Pending reservations and live-job entries are never evicted — they
// guard work still in flight. Each eviction costs the entries it passes
// over, not the index's size. Callers must hold s.mu.
func (s *Service) evictDedupLocked() {
	if s.maxDedupEntries <= 0 {
		return
	}
	for len(s.dedup) > s.maxDedupEntries {
		e := s.dedupOrder.popOldestDone(s.dedup)
		if e == nil {
			return
		}
		delete(s.dedup, e.key)
		s.removeDedupDocLocked(e.key)
	}
}

// dedupQueue holds the index's entries in seq order for eviction. An entry
// that leaves the index (released, or replaced under its key) stays queued
// until eviction or compaction passes it; an entry whose work is still in
// flight when eviction reaches it waits in deferred, which is older than
// every entry still in order.
type dedupQueue struct {
	order    []*dedupEntry // order[head:] in seq order
	head     int
	deferred []*dedupEntry
}

// indexed reports whether e is still the index's entry for its key.
func indexed(index map[string]*dedupEntry, e *dedupEntry) bool { return index[e.key] == e }

// push queues e, newer than every queued entry. Once most queued entries
// have left the index it compacts the queue, so the queue stays within a
// constant factor of the index however many captures come and go below the
// count bound.
func (q *dedupQueue) push(e *dedupEntry, index map[string]*dedupEntry) {
	if n := len(q.order) - q.head; n > 2*len(index)+64 {
		kept := q.order[:0]
		for _, qe := range q.order[q.head:] {
			if indexed(index, qe) {
				kept = append(kept, qe)
			}
		}
		clear(q.order[len(kept):])
		q.order, q.head = kept, 0
	} else if q.head > len(q.order)/2 {
		n := copy(q.order, q.order[q.head:])
		clear(q.order[n:])
		q.order, q.head = q.order[:n], 0
	}
	q.order = append(q.order, e)
}

// popOldestDone removes and returns the completed entry with the lowest
// seq, or nil if every entry left is in flight. Entries that have left the
// index are dropped on the way.
func (q *dedupQueue) popOldestDone(index map[string]*dedupEntry) *dedupEntry {
	var done *dedupEntry
	kept := q.deferred[:0]
	for _, e := range q.deferred {
		switch {
		case !indexed(index, e):
		case done == nil && e.analysisID != "":
			done = e
		default:
			kept = append(kept, e)
		}
	}
	clear(q.deferred[len(kept):])
	q.deferred = kept
	for done == nil && q.head < len(q.order) {
		e := q.order[q.head]
		q.order[q.head] = nil
		q.head++
		switch {
		case !indexed(index, e):
		case e.analysisID == "":
			q.deferred = append(q.deferred, e)
		default:
			done = e
		}
	}
	return done
}

// persistedDedup is the on-disk index document, one file per capture key.
type persistedDedup struct {
	Key        string `json:"key"`
	JobID      string `json:"job_id,omitempty"`
	AnalysisID string `json:"analysis_id,omitempty"`
	Seq        int64  `json:"seq"`
}

// dedupFilePrefix distinguishes index documents from analysis and job
// documents in the shared state directory; the document id hashes the key,
// which may not be filesystem-safe.
const dedupFilePrefix = "dedup-"

// dedupDocID is the store id for a capture key's index document.
func dedupDocID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

// journalDedupLocked mirrors one entry through the store. As with mid-run
// job journal writes there is no caller to hand an error to: a failed write
// costs exactly-once across a restart for this one capture (the replay
// re-runs it — at-least-once) and is surfaced via the dedup_journal_errors
// counter. Callers must hold s.mu.
func (s *Service) journalDedupLocked(e *dedupEntry) {
	if s.store == nil || e.pending {
		return
	}
	doc := persistedDedup{Key: e.key, JobID: e.jobID, AnalysisID: e.analysisID, Seq: e.seq}
	body, err := encodeBodyExtras(doc, nil)
	if err == nil {
		err = s.persistPut(KindDedup, dedupDocID(e.key), body, false)
	}
	if err != nil {
		s.metrics.DedupJournalErrors++
	}
}

// removeDedupDocLocked deletes an entry's index document (eviction, failed
// job), with failed deletes counted and retried like job evictions. Callers
// must hold s.mu.
func (s *Service) removeDedupDocLocked(key string) {
	if s.store != nil {
		s.deleteDocLocked(KindDedup, dedupDocID(key))
	}
}

// loadDedup restores the journaled index, reconciling each entry against the
// already-recovered analysis and job stores: an entry is only as good as the
// work it points at, so entries for failed or vanished jobs (including a
// crash between a job's terminal journal write and its index write, and a
// job whose corrupt journal document was salvaged away at this very startup)
// are dropped rather than blocking the capture's retry. Must run after
// loadState and loadJobs.
func (s *Service) loadDedup() error {
	if s.store == nil {
		return nil
	}
	docs, err := s.store.List(KindDedup)
	if err != nil {
		return err
	}
	for _, d := range docs {
		var doc persistedDedup
		_, reason := decodeStoredDoc(d, &doc, nil)
		if reason == nil && doc.Key == "" {
			reason = errors.New("document lacks a key")
		}
		if reason != nil {
			if err := s.salvageDoc(d, reason); err != nil {
				return err
			}
			continue
		}
		e := &dedupEntry{key: doc.Key, jobID: doc.JobID, analysisID: doc.AnalysisID, seq: doc.Seq}
		switch {
		case e.analysisID != "":
			if _, ok := s.analyses[e.analysisID]; !ok {
				s.removeDedupDocLocked(e.key)
				continue
			}
		case e.jobID != "":
			qj, live := s.jobs[e.jobID]
			if !live || qj.Status == JobFailed || qj.Status == JobPoisoned {
				s.removeDedupDocLocked(e.key)
				continue
			}
			if qj.Status == JobDone {
				e.analysisID = qj.AnalysisID
			}
		default:
			s.removeDedupDocLocked(e.key)
			continue
		}
		s.dedup[e.key] = e
		if e.seq > s.dedupSeq {
			s.dedupSeq = e.seq
		}
	}
	// The eviction queue, built once from the journaled order.
	order := make([]*dedupEntry, 0, len(s.dedup))
	for _, e := range s.dedup {
		order = append(order, e)
	}
	slices.SortFunc(order, func(a, b *dedupEntry) int { return cmp.Compare(a.seq, b.seq) })
	s.dedupOrder = dedupQueue{order: order}
	return nil
}
