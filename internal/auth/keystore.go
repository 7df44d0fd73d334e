package auth

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"medsen/internal/faultinject"
)

// API-key storage. A key is a bearer secret of the form "msk_<64 hex>"; the
// service stores only its SHA-256 hash, so a stolen state directory does not
// leak credentials. Keys persist as one JSON document each ("key-N.json")
// under the keystore directory — the same atomic write-temp-then-rename
// discipline as the analysis journal, behind the same faultinject.FS seam.
// Revocation keeps the document (with revoked_at_unix set) so a revoked key
// stays revoked across restarts.

// ErrUnauthenticated is the sentinel under every credential failure: no key,
// an unknown key, or a revoked key.
var ErrUnauthenticated = errors.New("auth: unauthenticated")

// secretPrefix marks MedSen API-key secrets; the suffix is 32 bytes of
// CSPRNG output in hex.
const secretPrefix = "msk_"

// maxSubjectLen bounds the subject identity stored with a key.
const maxSubjectLen = 128

// Key is one API key's metadata — everything except the secret, which exists
// only in the issuance response.
type Key struct {
	// ID names the key ("key-N").
	ID string `json:"id"`
	// Role is the key's access level.
	Role Role `json:"role"`
	// Subject is the tenant identity the key acts as (required for owner
	// keys, optional otherwise).
	Subject string `json:"subject,omitempty"`
	// Hash is the hex SHA-256 of the secret.
	Hash string `json:"hash"`
	// CreatedAtUnix is the issuance time.
	CreatedAtUnix int64 `json:"created_at_unix"`
	// RevokedAtUnix, when non-zero, is when the key was revoked.
	RevokedAtUnix int64 `json:"revoked_at_unix,omitempty"`
}

// Revoked reports whether the key has been revoked.
func (k Key) Revoked() bool { return k.RevokedAtUnix != 0 }

// Keystore issues, revokes and authenticates API keys. Safe for concurrent
// use. With a directory every mutation is mirrored to disk before it takes
// effect in memory; with dir "" the store is memory-only (tests, demos).
type Keystore struct {
	dir string
	fs  faultinject.FS
	now func() time.Time

	mu     sync.RWMutex
	byID   map[string]*Key
	byHash map[string]*Key
	nextID int
}

// OpenKeystore loads (creating if needed) the keystore under dir. dir ""
// opens a memory-only store. fs nil uses the real filesystem.
func OpenKeystore(fsys faultinject.FS, dir string) (*Keystore, error) {
	if fsys == nil {
		fsys = faultinject.OSFS{}
	}
	ks := &Keystore{
		dir:    dir,
		fs:     fsys,
		now:    time.Now,
		byID:   make(map[string]*Key),
		byHash: make(map[string]*Key),
	}
	if dir == "" {
		return ks, nil
	}
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("auth: creating keystore dir: %w", err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("auth: reading keystore dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "key-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("auth: reading %s: %w", name, err)
		}
		var k Key
		if err := json.Unmarshal(data, &k); err != nil {
			return nil, fmt.Errorf("auth: decoding %s: %w", name, err)
		}
		if k.ID == "" || k.Hash == "" {
			return nil, fmt.Errorf("auth: document %s lacks an id or hash", name)
		}
		if _, err := ParseRole(string(k.Role)); err != nil {
			return nil, fmt.Errorf("auth: document %s: %w", name, err)
		}
		kc := k
		ks.byID[k.ID] = &kc
		ks.byHash[k.Hash] = &kc
		if n, err := keyIDNumber(k.ID); err == nil && n > ks.nextID {
			ks.nextID = n
		}
	}
	return ks, nil
}

// keyIDNumber extracts the counter from a "key-N" id.
func keyIDNumber(id string) (int, error) {
	rest, ok := strings.CutPrefix(id, "key-")
	if !ok {
		return 0, errors.New("auth: unrecognized key id")
	}
	return strconv.Atoi(rest)
}

// hashSecret returns the hex SHA-256 a secret is stored under.
func hashSecret(secret string) string {
	sum := sha256.Sum256([]byte(secret))
	return hex.EncodeToString(sum[:])
}

// NewSecret draws a fresh API-key secret from the OS CSPRNG.
func NewSecret() (string, error) {
	var raw [32]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("auth: drawing key material: %w", err)
	}
	return secretPrefix + hex.EncodeToString(raw[:]), nil
}

// validateIssue checks role/subject invariants shared by Issue and Install.
func validateIssue(role Role, subject string) error {
	if _, err := ParseRole(string(role)); err != nil {
		return err
	}
	if role == RoleOwner && subject == "" {
		return errors.New("auth: owner keys require a subject (the objects the key may touch are scoped to it)")
	}
	if len(subject) > maxSubjectLen {
		return fmt.Errorf("auth: subject longer than %d bytes", maxSubjectLen)
	}
	for _, r := range subject {
		if unicode.IsControl(r) {
			return errors.New("auth: subject contains control characters")
		}
	}
	return nil
}

// Issue mints a fresh key with a CSPRNG secret, persists it, and returns the
// metadata plus the secret. The secret is shown exactly once — only its hash
// is stored.
func (ks *Keystore) Issue(role Role, subject string) (Key, string, error) {
	secret, err := NewSecret()
	if err != nil {
		return Key{}, "", err
	}
	k, err := ks.Install(secret, role, subject)
	if err != nil {
		return Key{}, "", err
	}
	return k, secret, nil
}

// Install registers a caller-supplied secret (the -bootstrap-admin-key path:
// the operator needs a known credential before any key exists to issue
// others with). Installing a secret that already exists with the same role
// and subject is a no-op returning the existing key, so a restart with the
// same bootstrap flag does not mint duplicates; any other hash collision is
// an error.
func (ks *Keystore) Install(secret string, role Role, subject string) (Key, error) {
	if err := validateIssue(role, subject); err != nil {
		return Key{}, err
	}
	if secret == "" {
		return Key{}, errors.New("auth: empty secret")
	}
	hash := hashSecret(secret)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if prev := ks.byHash[hash]; prev != nil {
		if prev.Role == role && prev.Subject == subject && !prev.Revoked() {
			return *prev, nil
		}
		return Key{}, errors.New("auth: a key with this secret already exists")
	}
	k := &Key{
		ID:            "key-" + strconv.Itoa(ks.nextID+1),
		Role:          role,
		Subject:       subject,
		Hash:          hash,
		CreatedAtUnix: ks.now().Unix(),
	}
	if err := ks.persistLocked(k); err != nil {
		return Key{}, err
	}
	ks.nextID++
	ks.byID[k.ID] = k
	ks.byHash[k.Hash] = k
	return *k, nil
}

// Revoke invalidates a key. Revoking an already-revoked key is a no-op; an
// unknown id is an error.
func (ks *Keystore) Revoke(id string) (Key, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	k := ks.byID[id]
	if k == nil {
		return Key{}, fmt.Errorf("auth: key %q not found", id)
	}
	if k.Revoked() {
		return *k, nil
	}
	revoked := *k
	revoked.RevokedAtUnix = ks.now().Unix()
	if err := ks.persistLocked(&revoked); err != nil {
		return Key{}, err
	}
	*k = revoked
	return *k, nil
}

// Authenticate resolves a bearer secret to its principal. Unknown and
// revoked secrets fail with an error wrapping ErrUnauthenticated; the error
// never says which, so probing cannot distinguish them.
func (ks *Keystore) Authenticate(secret string) (Principal, error) {
	if secret == "" {
		return Principal{}, fmt.Errorf("%w: no API key presented", ErrUnauthenticated)
	}
	hash := hashSecret(secret)
	ks.mu.RLock()
	k := ks.byHash[hash]
	var p Principal
	ok := k != nil && !k.Revoked()
	if ok {
		p = Principal{KeyID: k.ID, Role: k.Role, Subject: k.Subject}
	}
	ks.mu.RUnlock()
	if !ok {
		return Principal{}, fmt.Errorf("%w: unknown or revoked API key", ErrUnauthenticated)
	}
	return p, nil
}

// Keys returns every key's metadata, id-ordered.
func (ks *Keystore) Keys() []Key {
	ks.mu.RLock()
	out := make([]Key, 0, len(ks.byID))
	for _, k := range ks.byID {
		out = append(out, *k)
	}
	ks.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		ni, erri := keyIDNumber(out[i].ID)
		nj, errj := keyIDNumber(out[j].ID)
		if erri != nil || errj != nil {
			return out[i].ID < out[j].ID
		}
		return ni < nj
	})
	return out
}

// HasActiveAdmin reports whether any unrevoked admin key exists — without
// one the control plane (key issuance, the audit trail) is unreachable.
func (ks *Keystore) HasActiveAdmin() bool {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	for _, k := range ks.byID {
		if k.Role == RoleAdmin && !k.Revoked() {
			return true
		}
	}
	return false
}

// persistLocked writes one key document atomically (no-op without a
// directory). Callers must hold ks.mu.
func (ks *Keystore) persistLocked(k *Key) error {
	if ks.dir == "" {
		return nil
	}
	data, err := json.Marshal(k)
	if err != nil {
		return fmt.Errorf("auth: encoding %s: %w", k.ID, err)
	}
	path := filepath.Join(ks.dir, k.ID+".json")
	tmp := path + ".tmp"
	if err := ks.fs.WriteFile(tmp, data, 0o600); err != nil {
		return fmt.Errorf("auth: writing %s: %w", k.ID, err)
	}
	if err := ks.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("auth: committing %s: %w", k.ID, err)
	}
	return nil
}
