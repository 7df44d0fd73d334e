package auth

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestAuthorizePolicy is the pure-policy matrix: every role against every
// object type and verb combination that matters, including the ownership
// boundary and the anonymous full-access principal.
func TestAuthorizePolicy(t *testing.T) {
	owner := Principal{KeyID: "key-1", Role: RoleOwner, Subject: "alice"}
	clinic := Principal{KeyID: "key-2", Role: RoleClinic}
	admin := Principal{KeyID: "key-3", Role: RoleAdmin}
	cases := []struct {
		name  string
		p     Principal
		a     Action
		o     Object
		allow bool
	}{
		{"anonymous does everything", Anonymous(), ActionDelete, Object{Type: ObjectAudit}, true},
		{"zero principal does nothing", Principal{}, ActionRead, Object{Type: ObjectAnalysis, Owner: ""}, false},

		{"owner creates analyses", owner, ActionCreate, Object{Type: ObjectAnalysis}, true},
		{"owner creates jobs", owner, ActionCreate, Object{Type: ObjectJob}, true},
		{"owner reads own analysis", owner, ActionRead, Object{Type: ObjectAnalysis, Owner: "alice"}, true},
		{"owner updates own analysis", owner, ActionUpdate, Object{Type: ObjectAnalysis, Owner: "alice"}, true},
		{"owner denied foreign analysis", owner, ActionRead, Object{Type: ObjectAnalysis, Owner: "bob"}, false},
		{"owner denied unowned analysis", owner, ActionRead, Object{Type: ObjectAnalysis, Owner: ""}, false},
		{"owner reads own job", owner, ActionRead, Object{Type: ObjectJob, Owner: "alice"}, true},
		{"owner denied foreign job", owner, ActionRead, Object{Type: ObjectJob, Owner: "bob"}, false},
		{"owner reads own user listing", owner, ActionRead, Object{Type: ObjectUser, Owner: "alice"}, true},
		{"owner denied foreign user listing", owner, ActionRead, Object{Type: ObjectUser, Owner: "bob"}, false},
		{"owner denied enrollment", owner, ActionCreate, Object{Type: ObjectUser}, false},
		{"owner denied key issuance", owner, ActionCreate, Object{Type: ObjectAPIKey}, false},
		{"owner denied audit", owner, ActionRead, Object{Type: ObjectAudit}, false},

		{"clinic reads any analysis", clinic, ActionRead, Object{Type: ObjectAnalysis, Owner: "bob"}, true},
		{"clinic reads unowned analysis", clinic, ActionRead, Object{Type: ObjectAnalysis, Owner: ""}, true},
		{"clinic enrolls users", clinic, ActionCreate, Object{Type: ObjectUser}, true},
		{"clinic reads jobs", clinic, ActionRead, Object{Type: ObjectJob, Owner: "bob"}, true},
		{"clinic denied key issuance", clinic, ActionCreate, Object{Type: ObjectAPIKey}, false},
		{"clinic denied audit", clinic, ActionRead, Object{Type: ObjectAudit}, false},

		{"admin issues keys", admin, ActionCreate, Object{Type: ObjectAPIKey}, true},
		{"admin revokes keys", admin, ActionDelete, Object{Type: ObjectAPIKey}, true},
		{"admin reads audit", admin, ActionRead, Object{Type: ObjectAudit}, true},
		{"admin reads any analysis", admin, ActionRead, Object{Type: ObjectAnalysis, Owner: "bob"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Authorize(tc.p, tc.a, tc.o)
			if tc.allow && err != nil {
				t.Fatalf("Authorize = %v, want allow", err)
			}
			if !tc.allow {
				if err == nil {
					t.Fatal("Authorize allowed, want deny")
				}
				if !errors.Is(err, ErrPermissionDenied) {
					t.Fatalf("denial %v does not wrap ErrPermissionDenied", err)
				}
			}
		})
	}
}

// TestCanReadMatchesAuthorize: the listing predicate never disagrees with the
// per-object decision.
func TestCanReadMatchesAuthorize(t *testing.T) {
	principals := []Principal{
		Anonymous(),
		{Role: RoleOwner, Subject: "alice"},
		{Role: RoleClinic},
		{Role: RoleAdmin},
	}
	for _, p := range principals {
		for _, typ := range []ObjectType{ObjectAnalysis, ObjectJob, ObjectUser, ObjectAPIKey, ObjectAudit} {
			for _, owner := range []string{"", "alice", "bob"} {
				want := Authorize(p, ActionRead, Object{Type: typ, Owner: owner}) == nil
				if got := CanRead(p, typ, owner); got != want {
					t.Fatalf("CanRead(%+v, %s, %q) = %v, Authorize says %v", p, typ, owner, got, want)
				}
			}
		}
	}
}

func TestParseRole(t *testing.T) {
	for _, ok := range []string{"owner", "clinic", "admin"} {
		if _, err := ParseRole(ok); err != nil {
			t.Fatalf("ParseRole(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "root", "Admin", "OWNER"} {
		if _, err := ParseRole(bad); err == nil {
			t.Fatalf("ParseRole(%q) accepted", bad)
		}
	}
}

func TestActorName(t *testing.T) {
	if n := (Principal{Subject: "alice", KeyID: "key-1"}).ActorName(); n != "alice" {
		t.Fatalf("subject actor = %q", n)
	}
	if n := (Principal{KeyID: "key-2"}).ActorName(); n != "key-2" {
		t.Fatalf("key actor = %q", n)
	}
	if n := Anonymous().ActorName(); n != "anonymous" {
		t.Fatalf("anonymous actor = %q", n)
	}
}

// TestKeystoreLifecycle exercises issue → authenticate → revoke → reject on a
// disk-backed store, then reopens the directory and checks everything
// persisted — including the revocation.
func TestKeystoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	ks, err := OpenKeystore(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	k, secret, err := ks.Issue(RoleOwner, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(secret, "msk_") || len(secret) != len("msk_")+64 {
		t.Fatalf("secret form %q", secret)
	}
	k2, secret2, err := ks.Issue(RoleClinic, "")
	if err != nil {
		t.Fatal(err)
	}
	if k.ID == k2.ID || secret == secret2 {
		t.Fatal("ids or secrets collide")
	}

	p, err := ks.Authenticate(secret)
	if err != nil {
		t.Fatal(err)
	}
	if p.KeyID != k.ID || p.Role != RoleOwner || p.Subject != "alice" || p.anonymous {
		t.Fatalf("principal %+v", p)
	}
	if _, err := ks.Authenticate("msk_" + strings.Repeat("0", 64)); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("unknown secret: %v", err)
	}
	if _, err := ks.Authenticate(""); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("empty secret: %v", err)
	}

	if _, err := ks.Revoke(k.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Authenticate(secret); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("revoked secret still authenticates: %v", err)
	}
	// Unknown and revoked failures must be indistinguishable to a prober.
	_, errUnknown := ks.Authenticate("msk_" + strings.Repeat("1", 64))
	_, errRevoked := ks.Authenticate(secret)
	if errUnknown.Error() != errRevoked.Error() {
		t.Fatalf("probing distinguishes unknown (%v) from revoked (%v)", errUnknown, errRevoked)
	}
	if _, err := ks.Revoke("key-99"); err == nil {
		t.Fatal("revoking an unknown id should fail")
	}

	// Reopen: the revocation and the clinic key both survive.
	ks2, err := OpenKeystore(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks2.Authenticate(secret); !errors.Is(err, ErrUnauthenticated) {
		t.Fatal("revocation did not persist")
	}
	if _, err := ks2.Authenticate(secret2); err != nil {
		t.Fatalf("clinic key did not persist: %v", err)
	}
	// The id counter resumes past existing keys — no reuse.
	k3, _, err := ks2.Issue(RoleAdmin, "")
	if err != nil {
		t.Fatal(err)
	}
	if k3.ID == k.ID || k3.ID == k2.ID {
		t.Fatalf("id %s reused after reopen", k3.ID)
	}
}

func TestKeystoreValidation(t *testing.T) {
	ks, err := OpenKeystore(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ks.Issue(RoleOwner, ""); err == nil {
		t.Fatal("owner key without subject accepted")
	}
	if _, _, err := ks.Issue(Role("root"), ""); err == nil {
		t.Fatal("unknown role accepted")
	}
	if _, _, err := ks.Issue(RoleOwner, strings.Repeat("x", maxSubjectLen+1)); err == nil {
		t.Fatal("oversized subject accepted")
	}
	if _, _, err := ks.Issue(RoleOwner, "bad\nsubject"); err == nil {
		t.Fatal("control character in subject accepted")
	}
	if _, err := ks.Install("", RoleAdmin, ""); err == nil {
		t.Fatal("empty secret accepted")
	}
}

// TestInstallIdempotent: re-installing the same bootstrap secret is a no-op;
// installing it under a different role is an error.
func TestInstallIdempotent(t *testing.T) {
	ks, err := OpenKeystore(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	k1, err := ks.Install("msk_bootstrap", RoleAdmin, "")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ks.Install("msk_bootstrap", RoleAdmin, "")
	if err != nil {
		t.Fatal(err)
	}
	if k1.ID != k2.ID || len(ks.Keys()) != 1 {
		t.Fatalf("bootstrap minted a duplicate: %s vs %s (%d keys)", k1.ID, k2.ID, len(ks.Keys()))
	}
	if _, err := ks.Install("msk_bootstrap", RoleClinic, ""); err == nil {
		t.Fatal("same secret under a different role accepted")
	}
	if !ks.HasActiveAdmin() {
		t.Fatal("no active admin after bootstrap")
	}
	if _, err := ks.Revoke(k1.ID); err != nil {
		t.Fatal(err)
	}
	if ks.HasActiveAdmin() {
		t.Fatal("revoked admin still counts as active")
	}
}

// TestKeystoreRejectsCorruptDocument mirrors the journal-corruption tests:
// a broken key document fails the open loudly instead of silently dropping a
// credential.
func TestKeystoreRejectsCorruptDocument(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "key-1.json"), []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenKeystore(nil, dir); err == nil {
		t.Fatal("corrupt key document accepted")
	}
}

// TestKeystoreClock: issuance and revocation stamp the injected clock.
func TestKeystoreClock(t *testing.T) {
	ks, err := OpenKeystore(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	ks.now = func() time.Time { return now }
	k, _, err := ks.Issue(RoleClinic, "")
	if err != nil {
		t.Fatal(err)
	}
	if k.CreatedAtUnix != now.Unix() {
		t.Fatalf("CreatedAtUnix = %d", k.CreatedAtUnix)
	}
	now = now.Add(time.Hour)
	rk, err := ks.Revoke(k.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rk.RevokedAtUnix != now.Unix() {
		t.Fatalf("RevokedAtUnix = %d", rk.RevokedAtUnix)
	}
}

// TestKeysOrdering: Keys() comes back id-ordered numerically even past ten
// keys (key-2 before key-10).
func TestKeysOrdering(t *testing.T) {
	ks, err := OpenKeystore(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, _, err := ks.Issue(RoleOwner, fmt.Sprintf("subj-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	keys := ks.Keys()
	for i, k := range keys {
		if want := fmt.Sprintf("key-%d", i+1); k.ID != want {
			t.Fatalf("keys[%d] = %s, want %s", i, k.ID, want)
		}
	}
}
