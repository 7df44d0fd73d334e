// Package drbg implements a deterministic random bit generator based on
// HMAC-SHA256, following the construction of NIST SP 800-90A (HMAC_DRBG).
//
// The generator plays the role of the /dev/random entropy source on the
// MedSen controller (the paper's Raspberry Pi): it feeds the keystream that
// drives electrode selection, per-electrode gains and flow-speed changes.
// Unlike /dev/random it is seedable, which makes every experiment in this
// repository replayable bit-for-bit; production callers seed it from
// crypto/rand via NewFromEntropy.
package drbg

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"sync"
)

const (
	// seedLen is the HMAC-SHA256 output length; seeds of this size carry
	// full entropy through the Update function.
	seedLen = sha256.Size

	// maxRequestBytes bounds a single Generate call, per SP 800-90A
	// (2^16 bytes per request).
	maxRequestBytes = 1 << 16

	// reseedInterval is the number of Generate calls after which the
	// generator refuses to proceed without fresh entropy. SP 800-90A
	// allows 2^48; we keep the same bound.
	reseedInterval = 1 << 48
)

// ErrReseedRequired is returned by Generate when the reseed interval has
// been exhausted.
var ErrReseedRequired = errors.New("drbg: reseed required")

// DRBG is an HMAC-SHA256 deterministic random bit generator. It is safe for
// concurrent use. The zero value is not usable; construct with New or
// NewFromEntropy.
//
// The implementation replays exactly the HMAC state transitions of the
// textbook construction (hmac.New per call) but without its per-call cost:
// a 3 h key schedule takes ~2×10⁵ draws (~19 per epoch), so the hot path
// keeps two persistent SHA-256 states and snapshots of the key's ipad/opad
// absorption, making a draw allocation-free (pinned by TestGenerateAllocFree)
// while leaving the output stream bit-identical (pinned by the golden tests).
type DRBG struct {
	mu      sync.Mutex
	key     [seedLen]byte
	v       [seedLen]byte
	counter uint64

	// inner and outer are the persistent SHA-256 states used for every
	// HMAC evaluation; ipadState/opadState are their serialized states
	// right after absorbing key⊕ipad / key⊕opad, recomputed by rekey()
	// whenever the key changes (once per Generate, twice per update with
	// provided data).
	inner, outer hash.Hash
	ipadState    []byte
	opadState    []byte
	sum          [seedLen]byte
	pad          [sha256.BlockSize]byte
}

// Snapshot/restore interfaces, asserted locally so the package builds on
// toolchains predating encoding.BinaryAppender (Go 1.24). SHA-256 states
// have implemented BinaryMarshaler/BinaryUnmarshaler since Go 1.8.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

type binaryMarshaler interface {
	MarshalBinary() ([]byte, error)
}

type binaryUnmarshaler interface {
	UnmarshalBinary(data []byte) error
}

// appendHashState serializes h's state into dst (reusing its capacity).
func appendHashState(dst []byte, h hash.Hash) []byte {
	if a, ok := h.(binaryAppender); ok {
		out, err := a.AppendBinary(dst)
		if err != nil {
			panic(fmt.Sprintf("drbg: snapshotting SHA-256 state: %v", err))
		}
		return out
	}
	m, ok := h.(binaryMarshaler)
	if !ok {
		panic("drbg: SHA-256 state does not support marshaling")
	}
	out, err := m.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("drbg: snapshotting SHA-256 state: %v", err))
	}
	return append(dst, out...)
}

// restoreHashState rewinds h to a snapshot taken by appendHashState.
func restoreHashState(h hash.Hash, state []byte) {
	if err := h.(binaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("drbg: restoring SHA-256 state: %v", err))
	}
}

// rekey recomputes the ipad/opad state snapshots for the current key. The
// key is exactly seedLen (< the SHA-256 block size), so the standard
// zero-padded XOR applies — the same path crypto/hmac takes for short keys.
func (d *DRBG) rekey() {
	// d.pad rather than a local: writing a stack array through the
	// hash.Hash interface would force it to escape, costing one heap
	// allocation per rekey.
	pad := &d.pad
	for i := range pad {
		pad[i] = 0x36
	}
	for i, b := range d.key {
		pad[i] ^= b
	}
	d.inner.Reset()
	d.inner.Write(pad[:])
	d.ipadState = appendHashState(d.ipadState[:0], d.inner)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	d.outer.Reset()
	d.outer.Write(pad[:])
	d.opadState = appendHashState(d.opadState[:0], d.outer)
}

// hmacInto computes HMAC-SHA256(key, a‖b‖c) into out, where the key is the
// one captured by the last rekey. Nil segments are skipped. out may alias
// the inputs: every input byte is absorbed before out is written.
func (d *DRBG) hmacInto(out *[seedLen]byte, a, b, c []byte) {
	restoreHashState(d.inner, d.ipadState)
	d.inner.Write(a)
	if b != nil {
		d.inner.Write(b)
	}
	if c != nil {
		d.inner.Write(c)
	}
	d.inner.Sum(d.sum[:0])
	restoreHashState(d.outer, d.opadState)
	d.outer.Write(d.sum[:])
	d.outer.Sum(out[:0])
}

// New returns a DRBG seeded with the given seed material and an optional
// personalization string. The same (seed, personalization) pair always
// yields the same output stream.
func New(seed []byte, personalization string) *DRBG {
	d := &DRBG{
		inner: sha256.New(),
		outer: sha256.New(),
	}
	for i := range d.v {
		d.v[i] = 0x01
	}
	d.rekey() // snapshots for the all-zero initial key
	material := make([]byte, 0, len(seed)+len(personalization))
	material = append(material, seed...)
	material = append(material, personalization...)
	d.update(material)
	d.counter = 1
	return d
}

// NewFromSeed is a convenience constructor for simulation code that seeds
// from a 64-bit value.
func NewFromSeed(seed uint64) *DRBG {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	return New(buf[:], "medsen-sim")
}

// NewFromEntropy seeds the generator from the operating system entropy pool
// (crypto/rand), mirroring the paper's use of /dev/random on the controller.
func NewFromEntropy() (*DRBG, error) {
	seed := make([]byte, seedLen)
	if _, err := rand.Read(seed); err != nil {
		return nil, fmt.Errorf("drbg: reading OS entropy: %w", err)
	}
	return New(seed, "medsen-controller"), nil
}

// Domain-separation bytes for update, hoisted so the hot path never
// materializes a fresh one-byte slice.
var (
	sepZero = []byte{0x00}
	sepOne  = []byte{0x01}
)

// update implements the HMAC_DRBG Update function from SP 800-90A §10.1.2.2.
func (d *DRBG) update(provided []byte) {
	d.hmacInto(&d.key, d.v[:], sepZero, provided)
	d.rekey()
	d.hmacInto(&d.v, d.v[:], nil, nil)

	if len(provided) == 0 {
		return
	}

	d.hmacInto(&d.key, d.v[:], sepOne, provided)
	d.rekey()
	d.hmacInto(&d.v, d.v[:], nil, nil)
}

// Generate fills out with random bytes. It returns ErrReseedRequired once
// the reseed interval is exhausted and an error for oversized requests.
func (d *DRBG) Generate(out []byte) error {
	if len(out) > maxRequestBytes {
		return fmt.Errorf("drbg: request of %d bytes exceeds limit %d", len(out), maxRequestBytes)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.counter > reseedInterval {
		return ErrReseedRequired
	}
	offset := 0
	for offset < len(out) {
		d.hmacInto(&d.v, d.v[:], nil, nil)
		offset += copy(out[offset:], d.v[:])
	}
	d.update(nil)
	d.counter++
	return nil
}

// Read implements io.Reader. It never returns a short read unless the
// generator needs reseeding.
func (d *DRBG) Read(p []byte) (int, error) {
	// Split oversized reads into legal Generate requests.
	for off := 0; off < len(p); off += maxRequestBytes {
		end := off + maxRequestBytes
		if end > len(p) {
			end = len(p)
		}
		if err := d.Generate(p[off:end]); err != nil {
			return off, err
		}
	}
	return len(p), nil
}

// Uint64 returns a uniformly distributed 64-bit value. It panics only if the
// generator requires reseeding, which cannot happen within any realistic
// simulation run; the panic marks state corruption rather than a recoverable
// condition.
func (d *DRBG) Uint64() uint64 {
	var buf [8]byte
	if err := d.Generate(buf[:]); err != nil {
		panic(fmt.Sprintf("drbg: %v", err))
	}
	return binary.BigEndian.Uint64(buf[:])
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0, matching math/rand semantics.
func (d *DRBG) Intn(n int) int {
	if n <= 0 {
		panic("drbg: Intn called with non-positive n")
	}
	// Rejection sampling removes modulo bias.
	limit := math.MaxUint64 - (math.MaxUint64 % uint64(n))
	for {
		v := d.Uint64()
		if v < limit {
			return int(v % uint64(n))
		}
	}
}

// Float64 returns a uniformly distributed value in [0, 1).
func (d *DRBG) Float64() float64 {
	// 53 random bits scaled into [0,1), the same construction math/rand uses.
	return float64(d.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the Marsaglia polar method.
func (d *DRBG) NormFloat64() float64 {
	for {
		u := 2*d.Float64() - 1
		v := 2*d.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bool returns a uniformly distributed boolean.
func (d *DRBG) Bool() bool {
	return d.Uint64()&1 == 1
}
