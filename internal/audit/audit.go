// Package audit is the tamper-evident access trail of the analysis service.
// Every access to medical data should leave a record a forensic reviewer can
// trust (the "forensics-enabled access" direction of e-SAFE): the log is
// append-only, and each record carries the SHA-256 of its predecessor, so
// the chain commits to its entire history. An adversary with write access to
// the log file — the cloud is untrusted in the paper's threat model — can
// destroy the trail but cannot silently rewrite it: any edit, reorder, or
// mid-chain deletion breaks a hash link, and Open refuses a broken chain so
// the tampering is discovered at the next startup rather than at the next
// audit.
//
// Records are JSON lines appended to a single file under the service state
// directory ("audit.log"). Truncation to a record boundary is the one
// undetectable edit a single-writer hash chain permits; guarding against it
// needs an external anchor (publishing the head hash elsewhere), which
// HeadHash exposes for exactly that purpose.
package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"
)

// Outcomes of an audited action.
const (
	// OutcomeOK is a permitted action that succeeded.
	OutcomeOK = "ok"
	// OutcomeDenied is an action refused by authentication or RBAC.
	OutcomeDenied = "denied"
	// OutcomeError is a permitted action that failed server-side.
	OutcomeError = "error"
)

// Record is one audit-trail entry. Seq, TimeUnix, PrevHash and Hash are
// assigned by Append; callers fill the rest.
type Record struct {
	// Seq is the 1-based chain position.
	Seq int64 `json:"seq"`
	// TimeUnix is when the record was appended.
	TimeUnix int64 `json:"time_unix"`
	// Actor is who acted: the key subject, else the key id, else
	// "anonymous".
	Actor string `json:"actor"`
	// KeyID is the API key that authenticated the actor, when any.
	KeyID string `json:"key_id,omitempty"`
	// Role is the actor's RBAC role, when authenticated.
	Role string `json:"role,omitempty"`
	// Action is what happened, as "<object type>.<verb>" ("analysis.read",
	// "key.issue", "auth.login", ...).
	Action string `json:"action"`
	// Object names what was touched ("an-3", "job-7", "key-2", a user id).
	Object string `json:"object,omitempty"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Detail carries human-readable context (denial reasons, counts).
	Detail string `json:"detail,omitempty"`
	// PrevHash is the predecessor record's Hash ("" for the first record).
	PrevHash string `json:"prev_hash"`
	// Hash is the hex SHA-256 of this record's canonical encoding with
	// Hash itself blanked — the link the successor commits to.
	Hash string `json:"hash"`
}

// hashRecord computes a record's chain hash: SHA-256 over the canonical JSON
// encoding with the Hash field empty. Struct-driven marshaling fixes the
// field order, so the encoding — and therefore the hash — is deterministic.
func hashRecord(r Record) string {
	r.Hash = ""
	data, err := json.Marshal(r)
	if err != nil {
		// Marshal of a flat struct of strings and ints cannot fail.
		panic(fmt.Sprintf("audit: encoding record: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ErrTampered is the sentinel under every chain-verification failure.
var ErrTampered = errors.New("audit: hash chain broken")

// Verify walks a record sequence and checks the chain invariant: contiguous
// 1-based Seq, each PrevHash equal to the predecessor's Hash, and every Hash
// equal to the recomputed digest of its own record. It returns an error
// wrapping ErrTampered at the first violation.
func Verify(records []Record) error {
	prev := ""
	for i, r := range records {
		if r.Seq != int64(i)+1 {
			return fmt.Errorf("%w: record %d has seq %d, want %d", ErrTampered, i, r.Seq, i+1)
		}
		if r.PrevHash != prev {
			return fmt.Errorf("%w: record seq %d does not link to its predecessor", ErrTampered, r.Seq)
		}
		if hashRecord(r) != r.Hash {
			return fmt.Errorf("%w: record seq %d fails its own digest", ErrTampered, r.Seq)
		}
		prev = r.Hash
	}
	return nil
}

// Log is the append-only, hash-chained audit trail. Safe for concurrent use.
// With a path every record is appended to the file before it is committed in
// memory; with path "" the log is memory-only (tests, demos).
type Log struct {
	path string
	file *os.File
	now  func() time.Time

	mu      sync.RWMutex
	records []Record
	// appendErr is the last Append failure, cleared by the next success.
	// Probe reports it so readiness turns red the moment the trail stops
	// accepting records, instead of waiting for the next authenticated
	// request to fail. appendErrs counts every failure: each is a gap in
	// the trail.
	appendErr  error
	appendErrs int64
}

// Open loads and verifies the chain at path (creating the file if absent)
// and returns a log ready to append. A chain that fails verification —
// tampered, reordered, or truncated mid-record — returns an error wrapping
// ErrTampered and no log: a service must refuse to start over a trail it
// cannot vouch for. path "" opens a memory-only log.
func Open(path string) (*Log, error) {
	l := &Log{path: path, now: time.Now}
	if path == "" {
		return l, nil
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("audit: reading %s: %w", path, err)
	}
	records, err := parseChain(data)
	if err != nil {
		return nil, fmt.Errorf("audit: verifying %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("audit: opening %s: %w", path, err)
	}
	l.records = records
	l.file = f
	return l, nil
}

// parseChain decodes and verifies a JSONL chain file.
func parseChain(data []byte) ([]Record, error) {
	var records []Record
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%w: line %d is not a record: %v", ErrTampered, i+1, err)
		}
		records = append(records, r)
	}
	if err := Verify(records); err != nil {
		return nil, err
	}
	return records, nil
}

// Append assigns the chain fields (Seq, TimeUnix, PrevHash, Hash) to the
// record, durably appends it, and returns the completed record. On a write
// error — including any append to a file-backed log after Close — nothing is
// committed: the in-memory chain and the caller's view stay consistent, the
// next append retries the same sequence number, and AppendErrors counts the
// failure.
func (l *Log) Append(r Record) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.Seq = int64(len(l.records)) + 1
	r.TimeUnix = l.now().Unix()
	r.PrevHash = ""
	if n := len(l.records); n > 0 {
		r.PrevHash = l.records[n-1].Hash
	}
	r.Hash = hashRecord(r)
	if l.path != "" {
		data, err := json.Marshal(r)
		if err != nil {
			return Record{}, fmt.Errorf("audit: encoding record: %w", err)
		}
		err = os.ErrClosed
		if l.file != nil {
			_, err = l.file.Write(append(data, '\n'))
		}
		if err != nil {
			l.appendErr = err
			l.appendErrs++
			return Record{}, fmt.Errorf("audit: appending record: %w", err)
		}
	}
	l.appendErr = nil
	l.records = append(l.records, r)
	return r, nil
}

// Probe reports whether the chain can still take appends: the sticky error
// from the last failed Append when one is outstanding, else a write-and-remove
// probe of a temp file beside the chain file — which catches a disk gone full
// or read-only before any record is lost to it. A memory-only log always
// probes clean; a closed file-backed one never does. Readiness endpoints call
// this so a service whose audit trail has stopped recording is pulled from
// rotation instead of serving authenticated requests it cannot account for.
func (l *Log) Probe() error {
	l.mu.RLock()
	appendErr, file, path := l.appendErr, l.file, l.path
	l.mu.RUnlock()
	if appendErr != nil {
		return fmt.Errorf("audit: last append failed: %w", appendErr)
	}
	if path == "" {
		return nil
	}
	if file == nil {
		return fmt.Errorf("audit: probe: %w", os.ErrClosed)
	}
	probe := path + ".probe.tmp"
	if err := os.WriteFile(probe, []byte("ok"), 0o600); err != nil {
		return fmt.Errorf("audit: probe write: %w", err)
	}
	// Concurrent probes share the file; losing the removal race is fine.
	if err := os.Remove(probe); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("audit: probe cleanup: %w", err)
	}
	return nil
}

// AppendErrors returns how many Append calls have failed since Open.
func (l *Log) AppendErrors() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.appendErrs
}

// Len returns the number of records in the chain.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.records)
}

// HeadHash returns the hash of the newest record ("" on an empty chain) —
// the value to anchor externally if truncation resistance is needed.
func (l *Log) HeadHash() string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n := len(l.records); n > 0 {
		return l.records[n-1].Hash
	}
	return ""
}

// Snapshot returns a copy of the chain in sequence order, keeping only
// records matching the non-empty filters (exact match on Actor and Action).
func (l *Log) Snapshot(actor, action string) []Record {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Record, 0, len(l.records))
	for _, r := range l.records {
		if actor != "" && r.Actor != actor {
			continue
		}
		if action != "" && r.Action != action {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Close syncs and releases the chain file. A later Append on a file-backed
// log fails with os.ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	f := l.file
	l.file = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("audit: syncing %s: %w", l.path, err)
	}
	return f.Close()
}
