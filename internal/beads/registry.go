package beads

import (
	"errors"
	"fmt"
	"sync"

	"medsen/internal/drbg"
	"medsen/internal/microfluidic"
)

// Registry is the server-side store linking cyto-coded identifiers to user
// accounts (§V: the cloud "authenticates the user based on the statistics
// and characteristics of the beads with the blood sample, and links the
// user's identity to the encrypted analysis outcomes"). It is safe for
// concurrent use.
type Registry struct {
	alphabet Alphabet

	mu     sync.RWMutex
	byUser map[string]Identifier
	byCode map[string]string // Identifier.String() → user
}

// ErrDuplicateIdentifier reports an enrollment that would collide with an
// existing user's password.
var ErrDuplicateIdentifier = errors.New("beads: identifier already enrolled")

// NewRegistry builds an empty registry over the given alphabet.
func NewRegistry(a Alphabet) (*Registry, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &Registry{
		alphabet: a,
		byUser:   make(map[string]Identifier),
		byCode:   make(map[string]string),
	}, nil
}

// Alphabet returns the registry's alphabet.
func (r *Registry) Alphabet() Alphabet { return r.alphabet }

// Enroll registers an identifier for a user. Identifiers must be unique
// across users — a collision would let one patient read another's results.
func (r *Registry) Enroll(userID string, id Identifier) error {
	if userID == "" {
		return errors.New("beads: empty user id")
	}
	nonEmpty := false
	for _, t := range r.alphabet.Types {
		lv := id[t]
		if lv < 0 || lv > len(r.alphabet.LevelsPerUl) {
			return fmt.Errorf("beads: level %d out of range for %v", lv, t)
		}
		if lv > 0 {
			nonEmpty = true
		}
	}
	if !nonEmpty {
		return errors.New("beads: empty identifier")
	}
	code := id.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	if owner, taken := r.byCode[code]; taken && owner != userID {
		return fmt.Errorf("%w: %s", ErrDuplicateIdentifier, code)
	}
	if old, ok := r.byUser[userID]; ok {
		delete(r.byCode, old.String())
	}
	copied := make(Identifier, len(id))
	for t, lv := range id {
		if lv > 0 {
			copied[t] = lv
		}
	}
	r.byUser[userID] = copied
	r.byCode[code] = userID
	return nil
}

// EnrollNew draws a fresh collision-free identifier for the user and
// registers it, returning the identifier to load into the user's pipettes.
func (r *Registry) EnrollNew(userID string, rng *drbg.DRBG) (Identifier, error) {
	space := r.alphabet.PasswordSpaceSize()
	for attempt := 0; attempt < 4*space; attempt++ {
		id, err := r.alphabet.NewIdentifier(rng)
		if err != nil {
			return nil, err
		}
		err = r.Enroll(userID, id)
		if err == nil {
			return id, nil
		}
		if !errors.Is(err, ErrDuplicateIdentifier) {
			return nil, err
		}
	}
	return nil, errors.New("beads: password space exhausted")
}

// Len returns the number of enrolled users.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byUser)
}

// Authenticate identifies which user (if any) the measured per-type bead
// concentrations belong to — password checking without any screen entry.
func (r *Registry) Authenticate(measuredPerUl map[microfluidic.Type]float64) (string, bool) {
	id := r.alphabet.RecoverIdentifier(measuredPerUl)
	r.mu.RLock()
	defer r.mu.RUnlock()
	user, ok := r.byCode[id.String()]
	return user, ok
}
