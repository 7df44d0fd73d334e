package cloud

// The document format layered over Store: every persisted record is wrapped
// in a checksummed envelope
//
//	{"v":1, "kind":"job", "id":"job-3", "sha256":"…", "body":{…}}
//
// so a torn write, a flipped bit, or a document renamed over the wrong id is
// detected at load time instead of being deserialized into silently wrong
// clinical state. Documents written before the envelope existed — plain
// body JSON — still load (their integrity is whatever the disk delivered),
// so an upgraded binary starts over an old state dir.
//
// Unknown body fields round-trip: a document written by a newer binary and
// loaded by this one keeps the fields this binary does not understand, and
// re-persisting the record writes them back — a mixed-version restart never
// strips data (decodeBodyExtras / encodeBodyExtras).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// docEnvelope is the on-store wrapper around every document body.
type docEnvelope struct {
	V      int             `json:"v"`
	Kind   string          `json:"kind"`
	ID     string          `json:"id"`
	SHA256 string          `json:"sha256"`
	Body   json.RawMessage `json:"body"`
}

// docEnvelopeV is the current envelope version.
const docEnvelopeV = 1

// bodySum is the envelope checksum: SHA-256 over the exact body bytes.
func bodySum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// encodeEnvelope wraps a JSON body in the checksummed envelope. The body is
// spliced in verbatim: json.Marshal would compact and re-escape it, and the
// checksum would then cover bytes other than the ones stored.
func encodeEnvelope(kind DocKind, id string, body []byte) ([]byte, error) {
	if !json.Valid(body) {
		return nil, errors.New("document body is not valid JSON")
	}
	head, err := json.Marshal(docEnvelope{V: docEnvelopeV, Kind: string(kind), ID: id, SHA256: bodySum(body)})
	if err != nil {
		return nil, err
	}
	// head ends in the nil body's `null}`; the body takes its place.
	env := append(bytes.TrimSuffix(head, []byte("null}")), body...)
	return append(env, '}'), nil
}

// decodeEnvelope splits raw stored bytes into the JSON body, verifying the
// checksum (and, when the caller knows them, the kind and id) for enveloped
// documents. Pre-envelope documents — any JSON object without the envelope
// markers — pass through unchanged with legacy=true. kind/id "" skips that
// cross-check (the offline fsck path, which only knows the file).
func decodeEnvelope(raw []byte, kind DocKind, id string) (body []byte, legacy bool, err error) {
	var env docEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, false, fmt.Errorf("undecodable document: %w", err)
	}
	if env.V == 0 && env.SHA256 == "" {
		// A legacy raw body from before the envelope existed.
		return raw, true, nil
	}
	if env.V != docEnvelopeV {
		return nil, false, fmt.Errorf("unknown envelope version %d", env.V)
	}
	if got := bodySum(env.Body); got != env.SHA256 {
		return nil, false, fmt.Errorf("checksum mismatch: body is sha256:%s, envelope claims sha256:%s", got, env.SHA256)
	}
	if kind != "" && env.Kind != string(kind) {
		return nil, false, fmt.Errorf("document of kind %q filed as %q", env.Kind, kind)
	}
	if id != "" && env.ID != id {
		return nil, false, fmt.Errorf("document %q filed under id %q", env.ID, id)
	}
	return env.Body, false, nil
}

// jsonKeys derives the known top-level JSON keys of a document struct from
// its tags, so the unknown-field logic can never drift from the struct.
func jsonKeys(v any) map[string]bool {
	keys := make(map[string]bool)
	t := reflect.TypeOf(v)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch name {
		case "-":
			continue
		case "":
			name = f.Name
		}
		keys[name] = true
	}
	return keys
}

// Known body keys per persisted document type.
var (
	analysisKnownKeys = jsonKeys(persistedAnalysis{})
	jobKnownKeys      = jsonKeys(persistedJob{})
)

// decodeBodyExtras unmarshals a document body into v and collects the
// top-level keys v's type does not know, so a later re-persist can write
// them back. Known keys are dropped from the extras even when v leaves them
// empty — otherwise a field this binary deliberately clears (a terminal
// job's omitted payload) would be resurrected from the stale on-disk copy.
func decodeBodyExtras(body []byte, v any, known map[string]bool) (map[string]json.RawMessage, error) {
	if err := json.Unmarshal(body, v); err != nil {
		return nil, fmt.Errorf("undecodable document body: %w", err)
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(body, &all); err != nil {
		return nil, fmt.Errorf("undecodable document body: %w", err)
	}
	for k := range all {
		if known[k] {
			delete(all, k)
		}
	}
	if len(all) == 0 {
		return nil, nil
	}
	return all, nil
}

// encodeBodyExtras marshals a document struct and merges the preserved
// unknown fields back into the object. The struct's own keys always win.
func encodeBodyExtras(v any, extras map[string]json.RawMessage) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if len(extras) == 0 {
		return data, nil
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, err
	}
	for k, raw := range extras {
		if _, ok := all[k]; !ok {
			all[k] = raw
		}
	}
	return json.Marshal(all)
}

// FsckIssue is one document the offline verifier rejected.
type FsckIssue struct {
	// Name is the document file name within the state dir.
	Name string
	// Err says why the document failed verification.
	Err error
}

// FsckStateDir offline-verifies every document in a state directory:
// envelope parse, checksum, and kind/file-name consistency. It reports
// totals rather than stopping at the first failure, so `medsen-keytool
// store fsck` can list everything a restore would quarantine. legacy counts
// pre-envelope documents, which parse as JSON but carry no checksum.
func FsckStateDir(dir string) (checked, legacy int, issues []FsckIssue, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("cloud: reading state dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		checked++
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			issues = append(issues, FsckIssue{Name: name, Err: err})
			continue
		}
		kind := kindOfFile(name)
		body, isLegacy, err := decodeEnvelope(raw, kind, diskDocID(kind, name))
		if err != nil {
			issues = append(issues, FsckIssue{Name: name, Err: err})
			continue
		}
		if isLegacy {
			legacy++
		}
		if !json.Valid(body) {
			issues = append(issues, FsckIssue{Name: name, Err: errors.New("body is not valid JSON")})
		}
	}
	return checked, legacy, issues, nil
}
