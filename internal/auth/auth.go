// Package auth is the multi-tenant identity and authorization layer of the
// analysis service. The paper's threat model (§II) places both the phone and
// the cloud outside the trusted computing base, but the reproduction's v1 API
// originally trusted every caller with every record: any client could read
// any patient's analyses and spoof the X-Client-Id header to dodge rate
// limits. This package closes that gap with two pieces:
//
//   - API keys (keystore.go): bearer credentials issued per caller, stored
//     only as SHA-256 hashes, revocable, persisted in the service state
//     directory so a restart changes nothing.
//
//   - RBAC: every request is authorized against the *object it touches*
//     (object-scoped authorize-per-request), not just the endpoint. Three
//     roles cover the deployment described in the paper — patients, clinic
//     staff, and operators:
//
//     owner   a patient; may submit captures and touch only objects whose
//     owner principal matches the key's subject.
//     clinic  care staff; full access to medical objects (analyses,
//     jobs, enrollment) but none to the control plane (API keys,
//     audit trail).
//     admin   operator; everything, including key lifecycle and the audit
//     trail.
//
// The cloud service still holds no plaintext and no decryption keys — this
// layer governs who may see ciphertext-derived records, it does not change
// what the records contain.
package auth

import (
	"errors"
	"fmt"
)

// Role is a key's access level.
type Role string

// The deployment roles. See the package comment for their rights. RoleWorker
// is the service-to-service credential of an analysis worker daemon: it may
// acquire, heartbeat, and complete jobs over the internal workqueue API and
// nothing else — a compromised worker box cannot browse patient records or
// touch the control plane.
const (
	RoleOwner  Role = "owner"
	RoleClinic Role = "clinic"
	RoleAdmin  Role = "admin"
	RoleWorker Role = "worker"
)

// ParseRole validates a wire role string.
func ParseRole(s string) (Role, error) {
	switch r := Role(s); r {
	case RoleOwner, RoleClinic, RoleAdmin, RoleWorker:
		return r, nil
	}
	return "", fmt.Errorf("auth: unknown role %q (want owner, clinic, admin or worker)", s)
}

// Principal is an authenticated caller: the key that signed in and the
// identity it carries. The zero value is no principal at all and is
// authorized to do nothing; Anonymous() is the distinct "auth is disabled"
// principal that is authorized to do everything.
type Principal struct {
	// KeyID names the API key that authenticated ("key-N").
	KeyID string
	// Role is the key's access level.
	Role Role
	// Subject is the tenant identity the key acts as — for owner keys the
	// patient/user id that object ownership is matched against. May be
	// empty for clinic and admin keys.
	Subject string
	// anonymous marks the full-access principal used when the service runs
	// without a keystore (auth disabled), preserving the pre-auth API.
	anonymous bool
}

// Anonymous returns the full-access principal installed when authentication
// is disabled.
func Anonymous() Principal { return Principal{anonymous: true} }

// ActorName is the audit-trail identity of the principal: the subject when
// the key carries one, else the key id, else "anonymous".
func (p Principal) ActorName() string {
	if p.Subject != "" {
		return p.Subject
	}
	if p.KeyID != "" {
		return p.KeyID
	}
	return "anonymous"
}

// Action is what a request wants to do to an object.
type Action string

// The four request verbs.
const (
	ActionCreate Action = "create"
	ActionRead   Action = "read"
	ActionUpdate Action = "update"
	ActionDelete Action = "delete"
)

// ObjectType classifies the API resources authorization is scoped over.
type ObjectType string

// Object types of the v1 API surface.
const (
	// ObjectAnalysis is a stored analysis report.
	ObjectAnalysis ObjectType = "analysis"
	// ObjectJob is an async analysis job.
	ObjectJob ObjectType = "job"
	// ObjectUser is an enrolled identity (enrollment, per-user listings).
	ObjectUser ObjectType = "user"
	// ObjectAPIKey is the key lifecycle resource (control plane).
	ObjectAPIKey ObjectType = "api_key"
	// ObjectAudit is the audit-trail resource (control plane).
	ObjectAudit ObjectType = "audit"
	// ObjectWorkqueue is the internal job-lease API worker daemons pull
	// analysis work from (acquire/heartbeat/complete/fail).
	ObjectWorkqueue ObjectType = "workqueue"
)

// Object is the thing a request touches: its type plus the owner principal
// it is scoped to. Owner "" means the object is unowned (submitted before
// auth was enabled, or by a subject-less clinic/admin key) — only clinic and
// admin principals can see unowned objects.
type Object struct {
	Type ObjectType
	// Owner is the subject that owns the object. For ObjectUser it is the
	// user id the request addresses.
	Owner string
}

// ErrPermissionDenied is the sentinel under every authorization denial.
var ErrPermissionDenied = errors.New("auth: permission denied")

// Authorize decides whether the principal may perform the action on the
// object, returning an error wrapping ErrPermissionDenied when it may not.
// The decision is pure policy — no I/O, no clock — so it can sit on every
// request:
//
//	admin   everything.
//	clinic  everything on medical objects (analysis, job, user); nothing
//	        on the control plane (api_key, audit) or the workqueue.
//	owner   create analyses/jobs; read or update an analysis, job, or user
//	        listing only when the object's owner equals the key's subject.
//	worker  the workqueue only: lease, heartbeat, and complete analysis
//	        jobs over the internal pull API; nothing else.
func Authorize(p Principal, a Action, o Object) error {
	if p.anonymous || p.Role == RoleAdmin {
		return nil
	}
	switch p.Role {
	case RoleClinic:
		switch o.Type {
		case ObjectAnalysis, ObjectJob, ObjectUser:
			return nil
		}
	case RoleWorker:
		if o.Type == ObjectWorkqueue {
			return nil
		}
	case RoleOwner:
		switch o.Type {
		case ObjectAnalysis, ObjectJob:
			if a == ActionCreate {
				return nil
			}
			if p.Subject != "" && o.Owner == p.Subject {
				return nil
			}
		case ObjectUser:
			// A patient may read their own listings but cannot enroll
			// identities — enrollment is performed by the provider (§V).
			if a != ActionCreate && p.Subject != "" && o.Owner == p.Subject {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: role %s may not %s %s objects it does not own",
		ErrPermissionDenied, p.Role, a, o.Type)
}

// CanRead reports whether the principal may read an object of the given type
// and owner — the predicate listing endpoints filter rows by, so a listing
// never shows a row the corresponding GET would deny.
func CanRead(p Principal, t ObjectType, owner string) bool {
	return Authorize(p, ActionRead, Object{Type: t, Owner: owner}) == nil
}
