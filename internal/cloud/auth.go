package cloud

// Multi-tenant authentication for the /api/v1 surface. When the service is
// built with a Keystore, every /api/v1 request must carry "Authorization:
// Bearer <api key>"; the middleware resolves the key to an auth.Principal
// and stashes it in the request context, and each handler authorizes the
// principal against the object it touches (internal/auth). /healthz, /readyz
// and /metrics stay anonymous — they carry no medical data and load
// balancers must reach them without credentials.
//
// Without a keystore the API behaves exactly as before auth existed: every
// caller is the anonymous full-access principal, and the middleware is a
// passthrough that adds no allocations to the hot path.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"

	"medsen/internal/audit"
	"medsen/internal/auth"
)

// AuthDir returns the standard keystore location under a service state
// directory — the subdirectory keeps key documents out of the analysis/job
// journal scans, and medsen-keytool uses the same layout for offline
// issuance.
func AuthDir(stateDir string) string { return filepath.Join(stateDir, "auth") }

// AuditLogPath returns the standard audit-chain location under a service
// state directory.
func AuditLogPath(stateDir string) string { return filepath.Join(stateDir, "audit.log") }

// principalCtxKey carries the authenticated principal in the request context.
type principalCtxKey struct{}

// principal returns the request's authenticated principal — the anonymous
// full-access principal when authentication is disabled.
func (s *Service) principal(r *http.Request) auth.Principal {
	if p, ok := r.Context().Value(principalCtxKey{}).(auth.Principal); ok {
		return p
	}
	return auth.Anonymous()
}

// bearerToken extracts the Authorization: Bearer credential.
func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const scheme = "Bearer "
	if len(h) > len(scheme) && strings.EqualFold(h[:len(scheme)], scheme) {
		return strings.TrimSpace(h[len(scheme):]), true
	}
	return "", false
}

// withAuth is the authentication middleware over the API mux. With no
// keystore it forwards untouched; otherwise it authenticates every /api/v1
// request and injects the principal into the context. Failures answer 401
// unauthenticated with a WWW-Authenticate challenge and are audited.
func (s *Service) withAuth(next http.Handler) http.Handler {
	if s.keystore == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/api/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		token, _ := bearerToken(r)
		p, err := s.keystore.Authenticate(token)
		if err != nil {
			s.mu.Lock()
			s.metrics.AuthDenied++
			s.mu.Unlock()
			s.auditEvent(auth.Principal{}, "auth.login", r.Method+" "+r.URL.Path,
				audit.OutcomeDenied, err.Error())
			w.Header().Set("WWW-Authenticate", `Bearer realm="medsen"`)
			writeError(w, http.StatusUnauthorized, CodeUnauthenticated, err)
			return
		}
		next.ServeHTTP(w, r.WithContext(
			context.WithValue(r.Context(), principalCtxKey{}, p)))
	})
}

// authorize checks the principal against the object, answering the 403
// itself (and auditing the denial under auditAction/objectRef) when RBAC
// refuses. Handlers call it after resolving the object so the decision is
// scoped to what the request actually touches.
func (s *Service) authorize(w http.ResponseWriter, r *http.Request, a auth.Action, o auth.Object, auditAction, objectRef string) bool {
	p := s.principal(r)
	err := auth.Authorize(p, a, o)
	if err == nil {
		return true
	}
	s.mu.Lock()
	s.metrics.PermissionDenied++
	s.mu.Unlock()
	s.auditEvent(p, auditAction, objectRef, audit.OutcomeDenied, err.Error())
	writeError(w, http.StatusForbidden, CodePermissionDenied, err)
	return false
}

// auditEvent appends one record to the audit trail (no-op without one).
// There is no caller to hand an append error to — the request already
// succeeded or failed on its own terms — so the log counts the failure
// itself, and Snapshot reports it as audit_journal_errors. It never takes
// s.mu, so store events fired inside persist calls that hold it may audit
// too; they and the lease reaper pass a Principal whose Subject is their
// actor name.
func (s *Service) auditEvent(p auth.Principal, action, object, outcome, detail string) {
	if s.auditLog == nil {
		return
	}
	_, _ = s.auditLog.Append(audit.Record{
		Actor:   p.ActorName(),
		KeyID:   p.KeyID,
		Role:    string(p.Role),
		Action:  action,
		Object:  object,
		Outcome: outcome,
		Detail:  detail,
	})
}

// scopedCaptureKey namespaces an idempotency key by its tenant subject: the
// submitting key's subject, or a batch's resolved owner, so batch and single
// submissions of one capture dedup together. Without this an explicit
// Idempotency-Key chosen (or guessed) by one patient could collide with
// another's and hand back the other tenant's analysis — a cross-tenant
// information leak through the dedup index. Subject-less principals (clinic,
// admin, anonymous) share the global namespace, preserving the pre-auth
// dedup semantics.
func scopedCaptureKey(subject, key string) string {
	if subject == "" {
		return key
	}
	return "subj:" + subject + "|" + key
}

// KeyInfo is the wire form of one API key's metadata. The secret is never
// listed — it exists only in the issuance response — and neither is the
// stored hash.
type KeyInfo struct {
	ID            string `json:"id"`
	Role          string `json:"role"`
	Subject       string `json:"subject,omitempty"`
	CreatedAtUnix int64  `json:"created_at_unix"`
	RevokedAtUnix int64  `json:"revoked_at_unix,omitempty"`
}

// keyInfo converts keystore metadata to the wire form.
func keyInfo(k auth.Key) KeyInfo {
	return KeyInfo{
		ID:            k.ID,
		Role:          string(k.Role),
		Subject:       k.Subject,
		CreatedAtUnix: k.CreatedAtUnix,
		RevokedAtUnix: k.RevokedAtUnix,
	}
}

// IssuedKey is the POST /api/v1/keys response: the key metadata plus the
// secret, shown exactly once.
type IssuedKey struct {
	KeyInfo
	Secret string `json:"secret"`
}

// IssueKeyRequest is the POST /api/v1/keys body.
type IssueKeyRequest struct {
	Role    string `json:"role"`
	Subject string `json:"subject,omitempty"`
}

// requireKeystore answers 404 on the key/audit resources when the service
// runs without authentication — the resources do not exist in that mode.
func (s *Service) requireKeystore(w http.ResponseWriter) bool {
	if s.keystore == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			errors.New("key management requires the service to run with authentication enabled"))
		return false
	}
	return true
}

// handleIssueKey mints an API key (admin only).
func (s *Service) handleIssueKey(w http.ResponseWriter, r *http.Request) {
	if !s.requireKeystore(w) {
		return
	}
	if !s.authorize(w, r, auth.ActionCreate, auth.Object{Type: auth.ObjectAPIKey}, "key.issue", "") {
		return
	}
	var req IssueKeyRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decoding key request: %w", err))
		return
	}
	role, err := auth.ParseRole(req.Role)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	k, secret, err := s.keystore.Issue(role, req.Subject)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	s.auditEvent(s.principal(r), "key.issue", k.ID, audit.OutcomeOK,
		fmt.Sprintf("role=%s subject=%s", k.Role, k.Subject))
	writeJSON(w, http.StatusCreated, IssuedKey{KeyInfo: keyInfo(k), Secret: secret})
}

// handleListKeys lists key metadata (admin only), paginated like every other
// listing.
func (s *Service) handleListKeys(w http.ResponseWriter, r *http.Request) {
	if !s.requireKeystore(w) {
		return
	}
	if !s.authorize(w, r, auth.ActionRead, auth.Object{Type: auth.ObjectAPIKey}, "key.list", "") {
		return
	}
	limit, offset, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	keys := s.keystore.Keys()
	infos := make([]KeyInfo, len(keys))
	for i, k := range keys {
		infos[i] = keyInfo(k)
	}
	infos = paginate(w, infos, limit, offset)
	writeJSON(w, http.StatusOK, map[string][]KeyInfo{"keys": infos})
}

// handleRevokeKey revokes a key (admin only). Requests authenticated by the
// revoked key fail from the next request on.
func (s *Service) handleRevokeKey(w http.ResponseWriter, r *http.Request) {
	if !s.requireKeystore(w) {
		return
	}
	id := r.PathValue("id")
	if !s.authorize(w, r, auth.ActionDelete, auth.Object{Type: auth.ObjectAPIKey}, "key.revoke", id) {
		return
	}
	k, err := s.keystore.Revoke(id)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	s.auditEvent(s.principal(r), "key.revoke", k.ID, audit.OutcomeOK,
		fmt.Sprintf("role=%s subject=%s", k.Role, k.Subject))
	writeJSON(w, http.StatusOK, keyInfo(k))
}

// handleAudit serves the audit trail as a first-class resource (admin only):
// sequence-ordered records with the standard ?limit=&offset= pagination and
// X-Total-Count, filterable by ?actor= and ?action= the way the jobs listing
// filters by ?status=. The read itself is audited — after the snapshot, so a
// trail fetch does not contain its own record.
func (s *Service) handleAudit(w http.ResponseWriter, r *http.Request) {
	if s.auditLog == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			errors.New("the service runs without an audit trail"))
		return
	}
	if !s.authorize(w, r, auth.ActionRead, auth.Object{Type: auth.ObjectAudit}, "audit.read", "") {
		return
	}
	limit, offset, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	q := r.URL.Query()
	records := s.auditLog.Snapshot(q.Get("actor"), q.Get("action"))
	records = paginate(w, records, limit, offset)
	s.auditEvent(s.principal(r), "audit.read", "", audit.OutcomeOK,
		fmt.Sprintf("records=%d", len(records)))
	writeJSON(w, http.StatusOK, map[string][]audit.Record{"records": records})
}
