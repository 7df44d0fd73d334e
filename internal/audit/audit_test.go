package audit

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestChainAppendAndVerify: appended records link correctly and the whole
// chain verifies.
func TestChainAppendAndVerify(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r, err := l.Append(Record{Actor: "alice", Action: "analysis.read", Object: "an-1", Outcome: OutcomeOK})
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != int64(i)+1 {
			t.Fatalf("seq = %d, want %d", r.Seq, i+1)
		}
		if r.Hash == "" {
			t.Fatal("no hash assigned")
		}
	}
	records := l.Snapshot("", "")
	if err := Verify(records); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if records[0].PrevHash != "" {
		t.Fatal("first record has a predecessor")
	}
	for i := 1; i < len(records); i++ {
		if records[i].PrevHash != records[i-1].Hash {
			t.Fatalf("record %d does not link", i)
		}
	}
	if l.HeadHash() != records[len(records)-1].Hash {
		t.Fatal("HeadHash is not the newest record's hash")
	}
}

// TestChainSurvivesReopen: a file-backed chain reloads intact and appends
// continue the sequence. After Close the probe reports the closed file, and
// an append fails and is counted instead of landing in memory only, where
// the next Open would never see it.
func TestChainSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Record{Actor: "a", Action: "x", Outcome: OutcomeOK}); err != nil {
			t.Fatal(err)
		}
	}
	head := l.HeadHash()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Probe(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("probe after Close = %v, want os.ErrClosed", err)
	}
	if _, err := l.Append(Record{Actor: "late", Action: "x"}); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after Close = %v, want os.ErrClosed", err)
	}
	if l.Len() != 3 || l.AppendErrors() != 1 {
		t.Fatalf("after a closed append: Len %d, AppendErrors %d, want 3 and 1", l.Len(), l.AppendErrors())
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 3 || l2.HeadHash() != head {
		t.Fatalf("reloaded chain: %d records, head %s", l2.Len(), l2.HeadHash())
	}
	r, err := l2.Append(Record{Actor: "b", Action: "y", Outcome: OutcomeOK})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 4 || r.PrevHash != head {
		t.Fatalf("continuation record %+v does not extend the chain", r)
	}
}

// TestTamperedChainRefusesOpen is the acceptance criterion: flip a byte in
// any persisted record and the next Open fails with ErrTampered.
func TestTamperedChainRefusesOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(Record{Actor: "alice", Action: "analysis.read", Outcome: OutcomeOK}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// An adversary rewrites one record's actor in place.
	tampered := strings.Replace(string(pristine), `"actor":"alice"`, `"actor":"mallet"`, 1)
	if tampered == string(pristine) {
		t.Fatal("tamper replacement did not apply")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrTampered) {
		t.Fatalf("tampered chain opened: %v", err)
	}

	// Deleting a mid-chain record breaks linkage too.
	lines := strings.Split(strings.TrimSpace(string(pristine)), "\n")
	cut := strings.Join(append(lines[:1], lines[2:]...), "\n") + "\n"
	if err := os.WriteFile(path, []byte(cut), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrTampered) {
		t.Fatalf("mid-chain deletion opened: %v", err)
	}

	// Restoring the pristine bytes opens again.
	if err := os.WriteFile(path, pristine, 0o600); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatalf("pristine chain refused: %v", err)
	}
	l2.Close()
}

// TestVerifyDetectsReorder: swapping two records breaks the chain even though
// every record still carries a self-consistent hash.
func TestVerifyDetectsReorder(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Record{Actor: "a", Action: "x", Outcome: OutcomeOK}); err != nil {
			t.Fatal(err)
		}
	}
	records := l.Snapshot("", "")
	records[1], records[2] = records[2], records[1]
	if err := Verify(records); !errors.Is(err, ErrTampered) {
		t.Fatalf("reordered chain verified: %v", err)
	}
}

// TestUnparsableLineIsTampering: a truncated (torn) final line refuses the
// open rather than being silently dropped.
func TestUnparsableLineIsTampering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Actor: "a", Action: "x", Outcome: OutcomeOK}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"actor":"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(path); !errors.Is(err, ErrTampered) {
		t.Fatalf("torn tail accepted: %v", err)
	}
}

// TestSnapshotFilters: actor and action filters are exact-match and compose.
func TestSnapshotFilters(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	seed := []Record{
		{Actor: "alice", Action: "analysis.read", Outcome: OutcomeOK},
		{Actor: "bob", Action: "analysis.read", Outcome: OutcomeOK},
		{Actor: "alice", Action: "analysis.create", Outcome: OutcomeOK},
	}
	for _, r := range seed {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(l.Snapshot("alice", "")); got != 2 {
		t.Fatalf("actor filter: %d records", got)
	}
	if got := len(l.Snapshot("", "analysis.read")); got != 2 {
		t.Fatalf("action filter: %d records", got)
	}
	if got := len(l.Snapshot("alice", "analysis.read")); got != 1 {
		t.Fatalf("combined filter: %d records", got)
	}
	if got := len(l.Snapshot("mallet", "")); got != 0 {
		t.Fatalf("no-match filter: %d records", got)
	}
}

// TestAppendUsesClock: records stamp the injected clock (tests pin it).
func TestAppendUsesClock(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_800_000_000, 0)
	l.now = func() time.Time { return now }
	r, err := l.Append(Record{Actor: "a", Action: "x", Outcome: OutcomeOK})
	if err != nil {
		t.Fatal(err)
	}
	if r.TimeUnix != now.Unix() {
		t.Fatalf("TimeUnix = %d", r.TimeUnix)
	}
}

// TestHashCoversAllFields: changing any payload field of a finished record
// invalidates its digest — the chain commits to content, not just order.
func TestHashCoversAllFields(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{
		Actor: "alice", KeyID: "key-1", Role: "owner",
		Action: "analysis.read", Object: "an-1", Outcome: OutcomeOK, Detail: "d",
	}); err != nil {
		t.Fatal(err)
	}
	base := l.Snapshot("", "")[0]
	mutations := []func(*Record){
		func(r *Record) { r.Actor = "mallet" },
		func(r *Record) { r.KeyID = "key-9" },
		func(r *Record) { r.Role = "admin" },
		func(r *Record) { r.Action = "key.issue" },
		func(r *Record) { r.Object = "an-2" },
		func(r *Record) { r.Outcome = OutcomeDenied },
		func(r *Record) { r.Detail = "" },
		func(r *Record) { r.TimeUnix++ },
	}
	for i, mutate := range mutations {
		r := base
		mutate(&r)
		if hashRecord(r) == base.Hash {
			t.Fatalf("mutation %d does not change the digest", i)
		}
	}
}

// TestRecordWireShape pins the JSONL field names external verifiers depend
// on.
func TestRecordWireShape(t *testing.T) {
	data, err := json.Marshal(Record{Actor: "a", Action: "x", Outcome: OutcomeOK, Hash: "h"})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"seq"`, `"time_unix"`, `"actor"`, `"action"`, `"outcome"`, `"prev_hash"`, `"hash"`} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("wire record %s lacks %s", data, field)
		}
	}
}

// TestProbeAppendability pins the readiness probe contract: clean on a
// healthy chain (and always on a memory-only log), red the moment the
// chain's volume stops taking writes, and sticky-red after a failed Append
// until a later append succeeds.
func TestProbeAppendability(t *testing.T) {
	mem, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Probe(); err != nil {
		t.Fatalf("memory-only probe: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "trail")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := Open(filepath.Join(dir, "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Actor: "a", Action: "probe.test"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Probe(); err != nil {
		t.Fatalf("healthy probe: %v", err)
	}

	// The volume disappears under the chain (unmounted, dead disk): the
	// probe's temp write beside the file fails even though no record has
	// been lost yet. (The open fd still accepts writes to the unlinked
	// inode, so Append alone would not notice — exactly why Probe exists.)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := l.Probe(); err == nil {
		t.Fatal("probe stayed green with the chain directory gone")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Probe(); err != nil {
		t.Fatalf("probe after the volume returned: %v", err)
	}

	// An actual failed append latches: the fd dies (closed out from under
	// the log — an I/O error at the descriptor), the record is not
	// committed in memory, and Probe reports the sticky error without
	// touching the disk again.
	l.file.Close()
	n := l.Len()
	if _, err := l.Append(Record{Actor: "a", Action: "probe.fail"}); err == nil {
		t.Fatal("append succeeded on a dead descriptor")
	}
	if l.Len() != n {
		t.Fatalf("failed append changed Len: %d -> %d", n, l.Len())
	}
	if l.AppendErrors() != 1 {
		t.Fatalf("AppendErrors = %d after one failed append, want 1", l.AppendErrors())
	}
	if err := l.Probe(); err == nil {
		t.Fatal("probe stayed green after a failed append")
	}

	// The descriptor comes back (a reopened chain file) and an append
	// lands: the sticky error clears and the probe goes green again.
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	l.file = f
	if _, err := l.Append(Record{Actor: "a", Action: "probe.recover"}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := l.Probe(); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
}
