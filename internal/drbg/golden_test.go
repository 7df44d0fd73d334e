package drbg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// The golden checksums below pin the exact output stream of the DRBG across
// its whole API surface. The generator is the entropy source for every
// seeded experiment, so its stream is part of the reproducibility contract:
// any implementation change (including performance rewrites of the HMAC
// core) must keep these passing bit-for-bit.

func sumHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func TestGoldenByteStream(t *testing.T) {
	cases := []struct {
		seed uint64
		n    int
		want string
	}{
		{seed: 1, n: 64, want: "6fa63e0451c6386d27949370cd963b1cc071e6a7c75051de876a79605f2eb5f0"},
		{seed: 1, n: 4096, want: "d4001a47727d314cd9eede2f956eb524451a41513e7718341bdfa5442bef92ba"},
		{seed: 2016, n: 1000, want: "ba8fa3c30b08a006aedeef750595ca3dce15c413f23a7a62d94fc7a9a1d1fe2e"},
	}
	for _, tc := range cases {
		d := NewFromSeed(tc.seed)
		buf := make([]byte, tc.n)
		if _, err := d.Read(buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if got := sumHex(buf); got != tc.want {
			t.Errorf("seed %d n %d: stream checksum %s, want %s", tc.seed, tc.n, got, tc.want)
		}
	}
}

// TestGoldenGenerateCallBoundaries pins that the stream depends on the call
// pattern, not just total bytes: an update() runs between Generate calls, so
// 8×512 one-word draws differ from one 4096-byte draw. Any rewrite that
// batches draws through a buffer would break this (and the simulation).
func TestGoldenGenerateCallBoundaries(t *testing.T) {
	d := NewFromSeed(9)
	var acc []byte
	buf := make([]byte, 8)
	for i := 0; i < 512; i++ {
		if err := d.Generate(buf); err != nil {
			t.Fatalf("Generate: %v", err)
		}
		acc = append(acc, buf...)
	}
	if got, want := sumHex(acc), "d1c74354982110f53fb5ec1e46c926a61f786198c07e683d0ef4e1b472c1c566"; got != want {
		t.Errorf("8-byte call stream checksum %s, want %s", got, want)
	}
}

func TestGoldenPersonalizationAndReseed(t *testing.T) {
	d := New([]byte("seed-material"), "medsen-golden")
	buf := make([]byte, 96)
	if err := d.Generate(buf); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got, want := sumHex(buf), "ac56c8e2c55441d06d91c9048f6e37498335af49debeb02af8e6d1b2a0b394fd"; got != want {
		t.Errorf("personalized stream checksum %s, want %s", got, want)
	}
	d.Reseed([]byte("fresh entropy"))
	if err := d.Generate(buf); err != nil {
		t.Fatalf("Generate after Reseed: %v", err)
	}
	if got, want := sumHex(buf), "e7e26933a4920c6bebc0e3debc7fcdfac7fd0fd84554a3b72c42c5fd29173eff"; got != want {
		t.Errorf("post-reseed stream checksum %s, want %s", got, want)
	}
}

// TestGoldenDerivedDraws pins every derived-draw method the product uses:
// key schedules and identifiers consume the generator through these, so
// their consumption pattern (how many raw words each draw takes) is part of
// the contract too.
func TestGoldenDerivedDraws(t *testing.T) {
	d := NewFromSeed(77)
	h := sha256.New()
	w64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := 0; i < 32; i++ {
		w64(d.Uint64())
	}
	for i := 0; i < 64; i++ {
		w64(uint64(d.Intn(1000)))
	}
	for i := 0; i < 64; i++ {
		w64(math.Float64bits(d.Float64()))
	}
	for i := 0; i < 64; i++ {
		w64(math.Float64bits(d.NormFloat64()))
	}
	for i := 0; i < 32; i++ {
		if d.Bool() {
			w64(1)
		} else {
			w64(0)
		}
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "936c1a1a785f2fc9b24f5e040760cbf6760db74160ccb14fd1e9989560415862"; got != want {
		t.Errorf("derived-draw checksum %s, want %s", got, want)
	}
}
