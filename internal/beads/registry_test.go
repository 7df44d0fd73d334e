package beads

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"medsen/internal/drbg"
	"medsen/internal/microfluidic"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry(DefaultAlphabet())
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	return r
}

func measurementFor(t *testing.T, a Alphabet, id Identifier) map[microfluidic.Type]float64 {
	t.Helper()
	m := make(map[microfluidic.Type]float64)
	for _, typ := range a.Types {
		c, err := a.ConcentrationOf(id, typ)
		if err != nil {
			t.Fatalf("ConcentrationOf: %v", err)
		}
		m[typ] = c
	}
	return m
}

func TestNewRegistryRejectsBadAlphabet(t *testing.T) {
	if _, err := NewRegistry(Alphabet{}); err == nil {
		t.Fatal("expected error for invalid alphabet")
	}
}

func TestEnrollAndAuthenticate(t *testing.T) {
	r := newTestRegistry(t)
	alice := Identifier{microfluidic.TypeBead358: 2, microfluidic.TypeBead780: 4}
	bob := Identifier{microfluidic.TypeBead358: 5}
	if err := r.Enroll("alice", alice); err != nil {
		t.Fatalf("Enroll alice: %v", err)
	}
	if err := r.Enroll("bob", bob); err != nil {
		t.Fatalf("Enroll bob: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}

	user, ok := r.Authenticate(measurementFor(t, r.Alphabet(), alice))
	if !ok || user != "alice" {
		t.Fatalf("Authenticate(alice) = %q, %v", user, ok)
	}
	user, ok = r.Authenticate(measurementFor(t, r.Alphabet(), bob))
	if !ok || user != "bob" {
		t.Fatalf("Authenticate(bob) = %q, %v", user, ok)
	}
	// A stranger's bead mix matches nobody.
	stranger := Identifier{microfluidic.TypeBead780: 1}
	if _, ok := r.Authenticate(measurementFor(t, r.Alphabet(), stranger)); ok {
		t.Fatal("stranger authenticated")
	}
}

func TestEnrollRejectsDuplicateIdentifier(t *testing.T) {
	r := newTestRegistry(t)
	id := Identifier{microfluidic.TypeBead358: 3}
	if err := r.Enroll("alice", id); err != nil {
		t.Fatal(err)
	}
	err := r.Enroll("mallory", Identifier{microfluidic.TypeBead358: 3})
	if !errors.Is(err, ErrDuplicateIdentifier) {
		t.Fatalf("expected ErrDuplicateIdentifier, got %v", err)
	}
}

func TestEnrollValidation(t *testing.T) {
	r := newTestRegistry(t)
	if err := r.Enroll("", Identifier{microfluidic.TypeBead358: 1}); err == nil {
		t.Error("expected error for empty user")
	}
	if err := r.Enroll("u", Identifier{}); err == nil {
		t.Error("expected error for empty identifier")
	}
	if err := r.Enroll("u", Identifier{microfluidic.TypeBead358: 99}); err == nil {
		t.Error("expected error for out-of-range level")
	}
}

func TestReEnrollReplacesIdentifier(t *testing.T) {
	r := newTestRegistry(t)
	old := Identifier{microfluidic.TypeBead358: 1}
	if err := r.Enroll("alice", old); err != nil {
		t.Fatal(err)
	}
	updated := Identifier{microfluidic.TypeBead358: 2}
	if err := r.Enroll("alice", updated); err != nil {
		t.Fatalf("re-enroll: %v", err)
	}
	// The old code must be released for others.
	if err := r.Enroll("bob", old); err != nil {
		t.Fatalf("old identifier not released: %v", err)
	}
	got, err := r.IdentifierOf("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(updated) {
		t.Fatalf("IdentifierOf = %v, want %v", got, updated)
	}
}

func TestEnrollNewAvoidsCollisions(t *testing.T) {
	r := newTestRegistry(t)
	rng := drbg.NewFromSeed(3)
	seen := map[string]bool{}
	for i := 0; i < 30; i++ {
		id, err := r.EnrollNew(userName(i), rng)
		if err != nil {
			t.Fatalf("EnrollNew %d: %v", i, err)
		}
		code := id.String()
		if seen[code] {
			t.Fatalf("duplicate identifier issued: %s", code)
		}
		seen[code] = true
	}
}

func TestEnrollNewExhaustsSpace(t *testing.T) {
	a := Alphabet{
		Types:       []microfluidic.Type{microfluidic.TypeBead358},
		LevelsPerUl: []float64{100, 200},
	}
	r, err := NewRegistry(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := drbg.NewFromSeed(5)
	// Space size 2: two enrollments succeed, the third must fail.
	for i := 0; i < 2; i++ {
		if _, err := r.EnrollNew(userName(i), rng); err != nil {
			t.Fatalf("EnrollNew %d: %v", i, err)
		}
	}
	if _, err := r.EnrollNew("overflow", rng); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestIdentifierOfUnknownUser(t *testing.T) {
	r := newTestRegistry(t)
	if _, err := r.IdentifierOf("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("expected ErrUnknownUser, got %v", err)
	}
	if _, err := r.Verify("ghost", nil); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("Verify expected ErrUnknownUser, got %v", err)
	}
}

func TestVerify(t *testing.T) {
	r := newTestRegistry(t)
	id := Identifier{microfluidic.TypeBead358: 2, microfluidic.TypeBead780: 3}
	if err := r.Enroll("alice", id); err != nil {
		t.Fatal(err)
	}
	ok, err := r.Verify("alice", measurementFor(t, r.Alphabet(), id))
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v", ok, err)
	}
	wrong := Identifier{microfluidic.TypeBead358: 5}
	ok, err = r.Verify("alice", measurementFor(t, r.Alphabet(), wrong))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong beads verified")
	}
}

// TestCheckIntegrity pins §V's ciphertext integrity check as the controller
// runs it: the identifier recovered from the decoded bead statistics must
// equal the one submitted with the sample.
func TestCheckIntegrity(t *testing.T) {
	r := newTestRegistry(t)
	id := Identifier{microfluidic.TypeBead780: 2}
	good := measurementFor(t, r.Alphabet(), id)
	if !id.Equal(r.Alphabet().RecoverIdentifier(good)) {
		t.Fatal("integrity check should pass for matching decode")
	}
	tampered := map[microfluidic.Type]float64{microfluidic.TypeBead780: 9999}
	if id.Equal(r.Alphabet().RecoverIdentifier(tampered)) {
		t.Fatal("integrity check should fail for substituted results")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := newTestRegistry(t)
	rng := drbg.NewFromSeed(11)
	ids := make([]Identifier, 8)
	for i := range ids {
		id, err := r.EnrollNew(userName(i), rng)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := make(map[microfluidic.Type]float64)
			for _, typ := range r.Alphabet().Types {
				c, _ := r.Alphabet().ConcentrationOf(ids[i], typ)
				m[typ] = c
			}
			for j := 0; j < 100; j++ {
				if user, ok := r.Authenticate(m); !ok || user != userName(i) {
					t.Errorf("concurrent auth failed for %d", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func userName(i int) string {
	return fmt.Sprintf("user-%03d", i)
}

// IdentifierOf and Verify look an enrollment up by user. The product
// authenticates by measurement alone (Authenticate), so only the tests
// look up a user's word.

// ErrUnknownUser reports verification against an unenrolled account.
var ErrUnknownUser = errors.New("beads: unknown user")

// IdentifierOf returns the enrolled identifier for a user.
func (r *Registry) IdentifierOf(userID string) (Identifier, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byUser[userID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	out := make(Identifier, len(id))
	for t, lv := range id {
		out[t] = lv
	}
	return out, nil
}

// Verify checks a claimed user identity against the measured bead
// concentrations.
func (r *Registry) Verify(userID string, measuredPerUl map[microfluidic.Type]float64) (bool, error) {
	enrolled, err := r.IdentifierOf(userID)
	if err != nil {
		return false, err
	}
	recovered := r.alphabet.RecoverIdentifier(measuredPerUl)
	return enrolled.Equal(recovered), nil
}
