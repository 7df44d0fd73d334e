package phone

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"medsen/internal/cloud"
	"medsen/internal/faultinject"
)

// OfflineQueue is the phone app's store-and-forward buffer: a cellular link
// can drop mid-test, and the (already encrypted) capture must not be lost —
// the patient cannot re-bleed. Failed uploads are persisted as files and
// flushed when connectivity returns. The queue contents are ciphertext; a
// stolen phone learns nothing from them.
type OfflineQueue struct {
	// Dir is the spool directory.
	Dir string
	// FS, when non-nil, replaces the real filesystem — the seam the
	// fault-injection harness uses to exercise spool write failures.
	FS faultinject.FS

	mu sync.Mutex
}

// payloadSuffix marks queued compressed captures. tmpSuffix marks an entry
// still being written (a crash mid-Enqueue leaves one behind; the sweep
// removes it). badSuffix marks an entry parked aside by Flush because it was
// unreadable or permanently rejected — kept for forensics, never re-sent.
const (
	payloadSuffix = ".zip"
	tmpSuffix     = ".tmp"
	badSuffix     = ".bad"
)

func (q *OfflineQueue) fs() faultinject.FS {
	if q.FS != nil {
		return q.FS
	}
	return faultinject.OSFS{}
}

// Enqueue spools one compressed capture and returns its queue entry name.
func (q *OfflineQueue) Enqueue(payload []byte) (string, error) {
	if q.Dir == "" {
		return "", errors.New("phone: queue has no directory")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.fs().MkdirAll(q.Dir, 0o700); err != nil {
		return "", fmt.Errorf("phone: creating queue dir: %w", err)
	}
	q.sweepStaleLocked()
	next, err := q.nextSeqLocked()
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("%06d%s", next, payloadSuffix)
	tmp := filepath.Join(q.Dir, name+tmpSuffix)
	if err := q.fs().WriteFile(tmp, payload, 0o600); err != nil {
		return "", fmt.Errorf("phone: spooling: %w", err)
	}
	if err := q.fs().Rename(tmp, filepath.Join(q.Dir, name)); err != nil {
		return "", fmt.Errorf("phone: committing spool entry: %w", err)
	}
	return name, nil
}

// sweepStaleLocked removes *.tmp leftovers from a crash mid-Enqueue. A tmp
// file never reached the rename, so nothing durable is lost by deleting it —
// the capture it held was never acknowledged as spooled.
func (q *OfflineQueue) sweepStaleLocked() {
	entries, err := q.fs().ReadDir(q.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), tmpSuffix) {
			_ = q.fs().Remove(filepath.Join(q.Dir, e.Name()))
		}
	}
}

// nextSeqLocked returns one past the highest sequence number present in the
// spool in any form — live (.zip), in-flight (.zip.tmp), or parked
// (.zip.bad). Parked entries must count: reusing their number would let a
// later park rename over an earlier parked capture.
func (q *OfflineQueue) nextSeqLocked() (int, error) {
	entries, err := q.fs().ReadDir(q.Dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 1, nil
		}
		return 0, fmt.Errorf("phone: reading queue: %w", err)
	}
	next := 1
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), badSuffix)
		name = strings.TrimSuffix(name, tmpSuffix)
		if !strings.HasSuffix(name, payloadSuffix) {
			continue
		}
		if n, err := strconv.Atoi(strings.TrimSuffix(name, payloadSuffix)); err == nil && n >= next {
			next = n + 1
		}
	}
	return next, nil
}

// Pending lists spooled entries in upload order.
func (q *OfflineQueue) Pending() ([]string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.listLocked(payloadSuffix)
}

// Parked lists entries Flush has set aside as unreadable or permanently
// rejected, in name order.
func (q *OfflineQueue) Parked() ([]string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.listLocked(badSuffix)
}

func (q *OfflineQueue) listLocked(suffix string) ([]string, error) {
	if q.Dir == "" {
		return nil, errors.New("phone: queue has no directory")
	}
	entries, err := q.fs().ReadDir(q.Dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("phone: reading queue: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// permanentItemCode reports whether the service definitively rejected a batch
// item's payload itself: retrying the identical bytes can never succeed, so
// the entry should be parked rather than block the queue.
func permanentItemCode(code string) bool {
	switch code {
	case cloud.CodeInvalidRequest, cloud.CodeUnprocessable, cloud.CodePayloadTooLarge:
		return true
	}
	return false
}

// flushBatchSize is how many spooled entries one flush round trip carries.
// Well under the service's batch-item cap, so a flush is never rejected for
// size, and small enough that one response envelope stays cheap to buffer.
const flushBatchSize = 16

// Flush uploads spooled entries in order, coalescing up to flushBatchSize of
// them per POST /api/v1/analyses:batch round trip — a backlog accumulated
// during an outage ships with one HTTP request and one admission decision per
// batch instead of per capture — and deletes each on success. An entry that
// cannot be read back or that the service permanently rejects (per-item
// verdict) is parked aside with a .bad suffix — one corrupt spool file must
// not wedge every capture behind it — and flushing continues. Transient
// failures (transport errors, 5xx, a transient per-item verdict) stop the
// flush as before: connectivity is presumably still bad, and spool order is
// preserved. It reports how many entries were shipped.
func (q *OfflineQueue) Flush(ctx context.Context, client *cloud.Client) (int, error) {
	if client == nil {
		return 0, errors.New("phone: flush needs a cloud client")
	}
	names, err := q.Pending()
	if err != nil {
		return 0, err
	}
	flushed := 0
	for len(names) > 0 {
		chunk := names
		if len(chunk) > flushBatchSize {
			chunk = chunk[:flushBatchSize]
		}
		names = names[len(chunk):]

		// Read the chunk back, parking entries the disk refuses to return.
		items := make([]cloud.BatchSubmission, 0, len(chunk))
		itemNames := make([]string, 0, len(chunk))
		for _, name := range chunk {
			payload, err := q.fs().ReadFile(filepath.Join(q.Dir, name))
			if err != nil {
				if perr := q.park(name); perr != nil {
					return flushed, fmt.Errorf("phone: parking unreadable entry %s: %w", name, perr)
				}
				continue
			}
			// The content-derived key makes replays harmless: an entry the
			// service already analyzed (a crash between the upload and the
			// spool-file removal, or an ambiguous torn response) dedups to the
			// original analysis instead of double-counting the capture.
			items = append(items, cloud.BatchSubmission{
				Payload:        payload,
				IdempotencyKey: cloud.CaptureKey(payload),
			})
			itemNames = append(itemNames, name)
		}
		if len(items) == 0 {
			continue
		}
		resp, err := client.SubmitBatch(ctx, items)
		if err != nil {
			return flushed, fmt.Errorf("phone: flushing batch of %d: %w", len(items), err)
		}
		var transientErr error
		for _, res := range resp.Results {
			if res.Index < 0 || res.Index >= len(itemNames) {
				continue
			}
			name := itemNames[res.Index]
			switch {
			case res.OK():
				if err := q.fs().Remove(filepath.Join(q.Dir, name)); err != nil {
					return flushed, fmt.Errorf("phone: removing flushed entry %s: %w", name, err)
				}
				flushed++
			case res.Error != nil && permanentItemCode(res.Error.Code):
				if perr := q.park(name); perr != nil {
					return flushed, fmt.Errorf("phone: parking rejected entry %s: %w", name, perr)
				}
			default:
				// Transient per-item verdict (duplicate in flight, internal
				// error): the entry stays spooled for the next flush.
				if transientErr == nil {
					code := cloud.CodeInternal
					if res.Error != nil {
						code = res.Error.Code
					}
					transientErr = fmt.Errorf("phone: flushing %s: item deferred (%s)", name, code)
				}
			}
		}
		if transientErr != nil {
			return flushed, transientErr
		}
	}
	return flushed, nil
}

// park renames a spool entry aside with the .bad suffix.
func (q *OfflineQueue) park(name string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	path := filepath.Join(q.Dir, name)
	return q.fs().Rename(path, path+badSuffix)
}
