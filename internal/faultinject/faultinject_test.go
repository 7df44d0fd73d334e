package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestFaultyFS exercises each fault kind through a real temp directory.
func TestFaultyFS(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(nil, FSConfig{Seed: 1, WriteErrRate: 1, MaxFaults: 1})
	name := filepath.Join(dir, "doc.json")
	if err := fsys.WriteFile(name, []byte("payload"), 0o600); !errors.Is(err, ErrInjected) {
		t.Fatalf("first write: %v, want injected error", err)
	}
	if fsys.Faults() != 1 {
		t.Fatalf("Faults() = %d, want 1", fsys.Faults())
	}
	// Budget spent: the same call now succeeds.
	if err := fsys.WriteFile(name, []byte("payload"), 0o600); err != nil {
		t.Fatalf("post-budget write: %v", err)
	}
	got, err := fsys.ReadFile(name)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back: %q, %v", got, err)
	}

	short := NewFS(nil, FSConfig{Seed: 2, ShortWriteRate: 1, MaxFaults: 1})
	torn := filepath.Join(dir, "torn.json")
	if err := short.WriteFile(torn, []byte("0123456789"), 0o600); !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: %v, want injected error", err)
	}
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatalf("torn file missing: %v", err)
	}
	if len(data) == 0 || len(data) >= 10 {
		t.Fatalf("torn file has %d bytes, want a strict prefix", len(data))
	}

	rerr := NewFS(nil, FSConfig{Seed: 3, ReadErrRate: 1, MaxFaults: 1})
	if _, err := rerr.ReadFile(name); !errors.Is(err, ErrInjected) {
		t.Fatalf("read error: %v, want injected error", err)
	}
	badRename := NewFS(nil, FSConfig{Seed: 4, RenameErrRate: 1, MaxFaults: 1})
	if err := badRename.Rename(name, name+".x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename error: %v, want injected error", err)
	}

	// The seed pins the schedule: the same seed and call sequence fault the
	// same calls, and another seed faults others.
	schedule := func(seed int64) string {
		fsys := NewFS(nil, FSConfig{Seed: seed, WriteErrRate: 0.5})
		var calls strings.Builder
		for i := 0; i < 64; i++ {
			if fsys.WriteFile(name, nil, 0o600) != nil {
				calls.WriteByte('x')
			} else {
				calls.WriteByte('.')
			}
		}
		return calls.String()
	}
	if a, b := schedule(42), schedule(42); a != b {
		t.Fatalf("one seed, two schedules:\n%s\n%s", a, b)
	}
	if schedule(42) == schedule(43) {
		t.Fatal("different seeds produced an identical fault schedule")
	}
}

// TestRoundTripperFaults exercises each HTTP fault kind against a live
// server.
func TestRoundTripperFaults(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(bytes.Repeat([]byte("response body "), 16))
	}))
	defer ts.Close()

	get := func(rt http.RoundTripper) (*http.Response, error) {
		client := &http.Client{Transport: rt}
		return client.Get(ts.URL)
	}

	reset := NewRoundTripper(nil, HTTPConfig{Seed: 1, ResetRate: 1, MaxFaults: 1})
	if _, err := get(reset); !errors.Is(err, ErrInjected) {
		t.Fatalf("reset: %v, want injected error", err)
	}
	if s := reset.Stats(); s.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", s.Resets)
	}
	// Budget spent: the retry succeeds.
	resp, err := get(reset)
	if err != nil {
		t.Fatalf("post-budget request: %v", err)
	}
	resp.Body.Close()

	fivexx := NewRoundTripper(nil, HTTPConfig{Seed: 2, FiveXXRate: 1, MaxFaults: 1})
	resp, err = get(fivexx)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}

	trunc := NewRoundTripper(nil, HTTPConfig{Seed: 3, TruncateRate: 1, MaxFaults: 1})
	resp, err = get(trunc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reading truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFaultyFSStickyConditions exercises the toggled disk states the
// degraded-mode machinery runs against: a full disk fails writes and renames
// (with a recognizable ENOSPC) but lets deletes free space, a read-only
// remount fails every mutation, and neither consumes the seeded fault budget
// so healing restores exactly the configured schedule.
func TestFaultyFSStickyConditions(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(nil, FSConfig{})
	name := filepath.Join(dir, "doc.json")
	if err := fsys.WriteFile(name, []byte("payload"), 0o600); err != nil {
		t.Fatal(err)
	}

	fsys.SetDiskFull(true)
	if err := fsys.WriteFile(name, []byte("x"), 0o600); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write on full disk: %v, want ENOSPC", err)
	}
	if err := fsys.WriteFileSync(name, []byte("x"), 0o600); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("sync write on full disk: %v, want ENOSPC", err)
	}
	if err := fsys.Rename(name, name+".x"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("rename on full disk: %v, want ENOSPC", err)
	}
	// Deleting frees space: Remove succeeds and reads keep working.
	if _, err := fsys.ReadFile(name); err != nil {
		t.Fatalf("read on full disk: %v", err)
	}
	if err := fsys.Remove(name); err != nil {
		t.Fatalf("remove on full disk: %v", err)
	}
	if fsys.Faults() != 0 {
		t.Fatalf("sticky faults consumed the seeded budget: Faults() = %d", fsys.Faults())
	}

	fsys.SetDiskFull(false)
	if err := fsys.WriteFile(name, []byte("payload"), 0o600); err != nil {
		t.Fatalf("write after healing: %v", err)
	}

	fsys.SetReadOnly(true)
	if err := fsys.WriteFile(name, []byte("x"), 0o600); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("write on read-only disk: %v, want EROFS", err)
	}
	if err := fsys.Remove(name); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("remove on read-only disk: %v, want EROFS", err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "sub"), 0o700); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("mkdir on read-only disk: %v, want EROFS", err)
	}
	if _, err := fsys.ReadFile(name); err != nil {
		t.Fatalf("read on read-only disk: %v", err)
	}
	fsys.SetReadOnly(false)
	if err := fsys.Remove(name); err != nil {
		t.Fatalf("remove after healing: %v", err)
	}
}

// TestFaultyFSENOSPCRate verifies the seeded out-of-space fault: recognizable
// as ENOSPC, budget-bounded, and applied to renames as well as writes.
func TestFaultyFSENOSPCRate(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(nil, FSConfig{Seed: 5, ENOSPCRate: 1, MaxFaults: 2})
	name := filepath.Join(dir, "doc.json")
	err := fsys.WriteFile(name, []byte("payload"), 0o600)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write: %v, want injected ENOSPC", err)
	}
	if err := fsys.WriteFile(name, []byte("payload"), 0o600); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second write: %v, want injected ENOSPC", err)
	}
	// Budget spent: the same calls now succeed.
	if err := fsys.WriteFile(name, []byte("payload"), 0o600); err != nil {
		t.Fatalf("post-budget write: %v", err)
	}
	if err := fsys.Rename(name, name+".x"); err != nil {
		t.Fatalf("post-budget rename: %v", err)
	}
}

// TestFaultyFSWriteFileSync verifies the SyncFS path: the faulty wrapper
// exposes WriteFileSync, applies the same schedule as WriteFile, and the
// durable bytes land intact.
func TestFaultyFSWriteFileSync(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "doc.json")

	var _ SyncFS = OSFS{}
	var _ SyncFS = &FaultyFS{}

	fsys := NewFS(nil, FSConfig{Seed: 6, WriteErrRate: 1, MaxFaults: 1})
	if err := fsys.WriteFileSync(name, []byte("payload"), 0o600); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted sync write: %v, want injected error", err)
	}
	if err := fsys.WriteFileSync(name, []byte("payload"), 0o600); err != nil {
		t.Fatalf("post-budget sync write: %v", err)
	}
	got, err := os.ReadFile(name)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back: %q, %v", got, err)
	}
}
