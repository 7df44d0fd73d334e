// Golden-checksum tests pinning the seeded simulation outputs bit-for-bit.
//
// The simulation/classification stack (DESIGN.md §10) promises
// *bitwise-identical* results for a seed: the same DRBG draws for the key
// schedule and the physics seeds, the same seeded ChaCha8 physics streams,
// and the same float operations in the same order, for every worker count.
// These tests make that promise enforceable — each hashes every
// deterministic field of a seeded run (float64s by their IEEE-754 bit
// pattern, never via formatting) and compares against a recorded checksum.
// A mismatch means the simulated physics changed, not just its speed.
package medsen_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"medsen"
	"medsen/internal/cipher"
	"medsen/internal/controller"
	"medsen/internal/drbg"
	"medsen/internal/sensor"
)

// goldenHash accumulates values into a SHA-256 in a type-explicit way so the
// checksum depends only on the values, not on formatting.
type goldenHash struct{ h hash.Hash }

func newGoldenHash() *goldenHash { return &goldenHash{h: sha256.New()} }

func (g *goldenHash) u64(v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	g.h.Write(buf[:])
}

func (g *goldenHash) i64(v int64)   { g.u64(uint64(v)) }
func (g *goldenHash) f64(v float64) { g.u64(math.Float64bits(v)) }
func (g *goldenHash) str(s string)  { g.u64(uint64(len(s))); g.h.Write([]byte(s)) }
func (g *goldenHash) sum() string   { return hex.EncodeToString(g.h.Sum(nil)) }

func (g *goldenHash) bool(b bool) {
	if b {
		g.u64(1)
	} else {
		g.u64(0)
	}
}

// hashDiagnostic folds every deterministic field of a DiagnosticResult.
// Timing is wall-clock and deliberately excluded.
func hashDiagnostic(res medsen.DiagnosticResult) string {
	g := newGoldenHash()
	g.str(res.Diagnosis.Panel)
	g.f64(res.Diagnosis.ConcentrationPerUl)
	g.str(res.Diagnosis.Label)
	g.i64(int64(res.Diagnosis.Severity))
	g.i64(int64(res.CellCount))
	g.i64(int64(res.BeadCount))
	g.i64(int64(res.CiphertextPeaks))
	g.bool(res.IntegrityChecked)
	g.bool(res.IntegrityOK)
	return g.sum()
}

// runDiagnostic runs one fully seeded local diagnostic.
func runDiagnostic(t *testing.T, seed uint64, durationS float64, cellsPerUl float64, workers int) medsen.DiagnosticResult {
	t.Helper()
	device, err := medsen.NewDevice(medsen.WithSeed(seed))
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	res, err := device.RunDiagnostic(context.Background(), medsen.RunConfig{
		Sample:    medsen.NewBloodSample(10, cellsPerUl),
		DurationS: durationS,
		Workers:   workers,
	}, medsen.NewLocalAnalyzer())
	if err != nil {
		t.Fatalf("RunDiagnostic(seed=%d): %v", seed, err)
	}
	return res
}

// TestGoldenDiagnosticResult pins the end-to-end local diagnostic for a
// spread of seeds and durations, at every worker count. A change to the
// checksums is a change to the simulated physics and must say so.
func TestGoldenDiagnosticResult(t *testing.T) {
	cases := []struct {
		seed      uint64
		durationS float64
		cells     float64
		want      string
	}{
		{seed: 1, durationS: 30, cells: 150, want: "57f618b0941a8424c99e355f70cab69a469765f71e54169577e0c3c1944a6ba3"},
		{seed: 2, durationS: 20, cells: 350, want: "75b748aa92216d07f528e03257ddb4f6b29407458c0f32bf073c7881b68bf5f4"},
		{seed: 2016, durationS: 25, cells: 600, want: "bc20abeccd5d05f3723e8ad3a84e3376f41c0d6e150daabb18286a09bc4f38b8"},
	}
	for _, tc := range cases {
		serial := runDiagnostic(t, tc.seed, tc.durationS, tc.cells, 1)
		if got := hashDiagnostic(serial); got != tc.want {
			t.Errorf("seed %d duration %vs: diagnostic checksum drifted\n got %s\nwant %s",
				tc.seed, tc.durationS, got, tc.want)
		}
		for _, workers := range []int{0, 2, 3, 7} {
			res := runDiagnostic(t, tc.seed, tc.durationS, tc.cells, workers)
			if got := hashDiagnostic(res); got != tc.want {
				t.Errorf("seed %d workers %d: checksum differs from serial\n got %s\nwant %s",
					tc.seed, workers, got, tc.want)
			}
		}
	}
}

// hashAcquisition folds the complete ciphertext capture — every sample of
// every carrier trace by bit pattern — plus the ground-truth transit stream.
// This pins the microfluidic → electrode → lock-in synthesis chain at full
// resolution, far more sensitively than the end diagnosis.
func hashAcquisition(res sensor.Result) string {
	g := newGoldenHash()
	g.i64(int64(len(res.Acquisition.CarriersHz)))
	for i, f := range res.Acquisition.CarriersHz {
		g.f64(f)
		tr := res.Acquisition.Traces[i]
		g.f64(tr.Rate)
		g.i64(int64(len(tr.Samples)))
		for _, s := range tr.Samples {
			g.f64(s)
		}
	}
	g.i64(int64(len(res.Transits)))
	for _, tr := range res.Transits {
		g.i64(int64(tr.Type))
		g.f64(tr.EntryS)
		g.f64(tr.VelocityUmS)
		g.f64(tr.SizeScale)
	}
	return g.sum()
}

// TestGoldenEncryptedAcquisition pins the raw encrypted acquisition (the
// key schedule's gating plus the seeded particle and noise streams) for
// seeded sensor runs, serial and at every worker count.
func TestGoldenEncryptedAcquisition(t *testing.T) {
	cases := []struct {
		seed      uint64
		durationS float64
		cells     float64
		want      string
	}{
		{seed: 1, durationS: 15, cells: 150, want: "1821fef19adc974a60d22ce40bf4f810fc3337ec93de0090e351ea11f4e0f040"},
		{seed: 7, durationS: 8, cells: 500, want: "408fa6013977741e56d813f30b7423f3b9ac4da4f22b190bc532d04779a4b822"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 0, 2, 5} {
			rng := drbg.NewFromSeed(tc.seed)
			s := sensor.NewDefault()
			ctrl, err := controller.New(s, rng)
			if err != nil {
				t.Fatalf("controller.New: %v", err)
			}
			sched, err := cipher.Generate(ctrl.Params, tc.durationS, rng)
			if err != nil {
				t.Fatalf("cipher.Generate: %v", err)
			}
			res, err := s.Acquire(sensor.AcquireConfig{
				Sample:    medsen.NewBloodSample(10, tc.cells),
				DurationS: tc.durationS,
				Schedule:  sched,
				Workers:   workers,
			}, rng)
			if err != nil {
				t.Fatalf("Acquire(seed=%d): %v", tc.seed, err)
			}
			if got := hashAcquisition(res); got != tc.want {
				t.Errorf("seed %d workers %d: acquisition checksum drifted\n got %s\nwant %s",
					tc.seed, workers, got, tc.want)
			}
		}
	}
}
