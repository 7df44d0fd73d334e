package cipher

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"medsen/internal/drbg"
	"medsen/internal/kdf"
)

func testSchedule(t *testing.T) *Schedule {
	t.Helper()
	s, err := Generate(DefaultParams(), 30, drbg.NewFromSeed(123))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyShareRoundTrip(t *testing.T) {
	orig := testSchedule(t)
	blob, err := orig.ExportShared("practitioner-passphrase")
	if err != nil {
		t.Fatalf("ExportShared: %v", err)
	}
	got, err := ImportShared(blob, "practitioner-passphrase")
	if err != nil {
		t.Fatalf("ImportShared: %v", err)
	}
	wantBytes, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("schedule corrupted through key share round trip")
	}
}

func TestKeyShareWrongPassphrase(t *testing.T) {
	blob, err := testSchedule(t).ExportShared("right")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ImportShared(blob, "wrong"); !errors.Is(err, ErrWrongPassphrase) {
		t.Fatalf("expected ErrWrongPassphrase, got %v", err)
	}
}

func TestKeyShareTamperDetected(t *testing.T) {
	blob, err := testSchedule(t).ExportShared("pass")
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 5, len(blob) / 2, len(blob) - 1} {
		tampered := append([]byte(nil), blob...)
		tampered[idx] ^= 0x01
		if _, err := ImportShared(tampered, "pass"); err == nil {
			t.Errorf("tamper at byte %d not detected", idx)
		}
	}
}

func TestKeyShareTruncated(t *testing.T) {
	blob, err := testSchedule(t).ExportShared("pass")
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 10, 30} {
		if _, err := ImportShared(blob[:cut], "pass"); !errors.Is(err, ErrBadShare) {
			t.Errorf("truncation at %d: got %v", cut, err)
		}
	}
}

func TestKeyShareEmptyPassphrase(t *testing.T) {
	if _, err := testSchedule(t).ExportShared(""); err == nil {
		t.Fatal("expected error for empty passphrase")
	}
}

func TestKeyShareBlobsAreNondeterministic(t *testing.T) {
	s := testSchedule(t)
	a, err := s.ExportShared("pass")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ExportShared("pass")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two exports should differ (fresh salt and nonce)")
	}
	// Both must still open.
	if _, err := ImportShared(a, "pass"); err != nil {
		t.Fatal(err)
	}
	if _, err := ImportShared(b, "pass"); err != nil {
		t.Fatal(err)
	}
}

func TestKeyShareUnsupportedVersion(t *testing.T) {
	blob, err := testSchedule(t).ExportShared("pass")
	if err != nil {
		t.Fatal(err)
	}
	blob[len(shareMagic)] = 9
	if _, err := ImportShared(blob, "pass"); !errors.Is(err, ErrBadShare) {
		t.Fatalf("expected ErrBadShare for bad version, got %v", err)
	}
}

func TestKeyShareIterationCountBounded(t *testing.T) {
	blob, err := testSchedule(t).ExportShared("pass")
	if err != nil {
		t.Fatal(err)
	}
	iters := blob[len(shareMagic)+1 : len(shareMagic)+5]
	binary.BigEndian.PutUint32(iters, kdf.DefaultIterations+1)
	start := time.Now()
	_, err = ImportShared(blob, "pass")
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("rejecting the share took %v, want < 100ms", elapsed)
	}
	if !errors.Is(err, ErrBadShare) {
		t.Fatalf("iteration count %d: got %v, want ErrBadShare", kdf.DefaultIterations+1, err)
	}
}
