package cipher

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"medsen/internal/kdf"
)

// Key sharing with trusted parties (§VII-B): "MedSen's design also allows
// (not implemented) sharing of the generated keys with trusted parties,
// e.g., the patient's practitioners, so that they could also access the
// cloud-based analysis outcomes remotely." This file implements that
// extension: a schedule is sealed under a passphrase-derived AES-256-GCM
// key, producing a blob the patient can hand to their practitioner through
// any channel; the practitioner can then decrypt the cloud-stored analysis
// exactly as the controller does.

const (
	shareMagic   = "MSKS"
	shareVersion = 1
	saltLen      = 16
	nonceLen     = 12
)

// ErrBadShare reports a malformed or tampered key-share blob.
var ErrBadShare = errors.New("cipher: malformed key share")

// ErrWrongPassphrase reports an authentication failure opening a share —
// either the passphrase is wrong or the blob was modified.
var ErrWrongPassphrase = errors.New("cipher: wrong passphrase or corrupted share")

// ExportShared seals the schedule under the passphrase. The blob layout is
// magic ‖ version ‖ iterations ‖ salt ‖ nonce ‖ AES-256-GCM(schedule).
func (s *Schedule) ExportShared(passphrase string) ([]byte, error) {
	if passphrase == "" {
		return nil, errors.New("cipher: empty passphrase")
	}
	plain, err := s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	salt := make([]byte, saltLen)
	if _, err := rand.Read(salt); err != nil {
		return nil, fmt.Errorf("cipher: reading salt entropy: %w", err)
	}
	nonce := make([]byte, nonceLen)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("cipher: reading nonce entropy: %w", err)
	}
	aead, err := newShareAEAD(passphrase, salt, kdf.DefaultIterations)
	if err != nil {
		return nil, err
	}

	blob := make([]byte, 0, len(shareMagic)+1+4+saltLen+nonceLen+len(plain)+aead.Overhead())
	blob = append(blob, shareMagic...)
	blob = append(blob, shareVersion)
	var iterBuf [4]byte
	binary.BigEndian.PutUint32(iterBuf[:], uint32(kdf.DefaultIterations))
	blob = append(blob, iterBuf[:]...)
	blob = append(blob, salt...)
	blob = append(blob, nonce...)
	// The header is bound as associated data so it cannot be swapped.
	header := blob[:len(blob)-nonceLen-saltLen]
	blob = aead.Seal(blob, nonce, plain, header)
	return blob, nil
}

// ImportShared opens a blob produced by ExportShared.
func ImportShared(blob []byte, passphrase string) (*Schedule, error) {
	headerLen := len(shareMagic) + 1 + 4
	minLen := headerLen + saltLen + nonceLen
	if len(blob) < minLen {
		return nil, fmt.Errorf("%w: truncated", ErrBadShare)
	}
	if string(blob[:len(shareMagic)]) != shareMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadShare)
	}
	if blob[len(shareMagic)] != shareVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadShare, blob[len(shareMagic)])
	}
	iterations := int(binary.BigEndian.Uint32(blob[len(shareMagic)+1 : headerLen]))
	// Version 1 writes kdf.DefaultIterations, so a larger count comes from a
	// forged or corrupted header. Rejecting it before PBKDF2 runs keeps an
	// untrusted blob from choosing how much CPU opening it costs.
	if iterations < 1 || iterations > kdf.DefaultIterations {
		return nil, fmt.Errorf("%w: iteration count %d", ErrBadShare, iterations)
	}
	salt := blob[headerLen : headerLen+saltLen]
	nonce := blob[headerLen+saltLen : minLen]
	ciphertext := blob[minLen:]

	aead, err := newShareAEAD(passphrase, salt, iterations)
	if err != nil {
		return nil, err
	}
	plain, err := aead.Open(nil, nonce, ciphertext, blob[:headerLen])
	if err != nil {
		return nil, ErrWrongPassphrase
	}
	var sched Schedule
	if err := sched.UnmarshalBinary(plain); err != nil {
		return nil, err
	}
	return &sched, nil
}

func newShareAEAD(passphrase string, salt []byte, iterations int) (cipher.AEAD, error) {
	key := kdf.PBKDF2SHA256([]byte(passphrase), salt, iterations, 32)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cipher: building AES key: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("cipher: building GCM: %w", err)
	}
	return aead, nil
}
