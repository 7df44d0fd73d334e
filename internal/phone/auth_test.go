package phone

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"medsen/internal/audit"
	"medsen/internal/auth"
	"medsen/internal/cloud"
	"medsen/internal/csvio"
)

// authedCloud starts an analysis service with authentication enabled and
// returns its URL plus an owner-key secret for the given subject.
func authedCloud(t *testing.T, subject string) (baseURL, secret string) {
	t.Helper()
	ks, err := auth.OpenKeystore(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	_, secret, err = ks.Issue(auth.RoleOwner, subject)
	if err != nil {
		t.Fatal(err)
	}
	log, err := audit.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	svc, err := cloud.NewService(cloud.ServiceConfig{Keystore: ks, Audit: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, secret
}

// TestRelayAuthenticatesLiveUpload: the relay's bearer key rides every live
// upload, and without it the same request is a 401 the relay surfaces.
func TestRelayAuthenticatesLiveUpload(t *testing.T) {
	url, secret := authedCloud(t, "alice")
	acq := testAcquisitionSeeded(t, 210)

	relay := &Relay{Client: &cloud.Client{BaseURL: url, APIKey: secret}, Uplink: Default4G()}
	sub, _, err := relay.Upload(context.Background(), acq)
	if err != nil {
		t.Fatalf("authenticated upload: %v", err)
	}
	if sub.ID == "" {
		t.Fatalf("submission = %+v", sub)
	}

	bare := &Relay{Client: &cloud.Client{BaseURL: url}, Uplink: Default4G()}
	if _, _, err := bare.Upload(context.Background(), acq); !errors.Is(err, cloud.ErrUnauthenticated) {
		t.Fatalf("unauthenticated upload: %v, want ErrUnauthenticated", err)
	}
}

// TestSpoolFlushAuthenticates: spooled entries replay with the client's
// bearer key, and a 401 is a *transient* flush failure — the entries stay
// pending (never parked as .bad: the captures are fine, the credential is
// not) and ship untouched once a key is present.
func TestSpoolFlushAuthenticates(t *testing.T) {
	url, secret := authedCloud(t, "alice")
	q := &OfflineQueue{Dir: t.TempDir()}
	ctx := context.Background()

	for _, seed := range []uint64{211, 212} {
		payload, err := csvio.CompressAcquisition(testAcquisitionSeeded(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Enqueue(payload); err != nil {
			t.Fatal(err)
		}
	}

	// Flush without a key: fails, nothing shipped, nothing parked.
	if n, err := q.Flush(ctx, &cloud.Client{BaseURL: url}); err == nil || n != 0 {
		t.Fatalf("keyless flush shipped %d entries (err %v)", n, err)
	} else if !errors.Is(err, cloud.ErrUnauthenticated) {
		t.Fatalf("keyless flush: %v, want ErrUnauthenticated", err)
	}
	pending, err := q.Pending()
	if err != nil {
		t.Fatal(err)
	}
	parked, err := q.Parked()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || len(parked) != 0 {
		t.Fatalf("after 401 flush: %d pending, %d parked — a credential failure must not discard captures", len(pending), len(parked))
	}

	// Same spool, authenticated client: both entries ship.
	authed := &cloud.Client{BaseURL: url, APIKey: secret}
	n, err := q.Flush(ctx, authed)
	if err != nil || n != 2 {
		t.Fatalf("authenticated flush: %d entries, %v", n, err)
	}
	if pending, _ := q.Pending(); len(pending) != 0 {
		t.Fatalf("entries left after successful flush: %v", pending)
	}
	// And the replayed analyses are owned by the key's subject.
	rows, _, err := authed.ListAnalysesPage(ctx, cloud.Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("owner sees %d analyses after flush, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Owner != "alice" {
			t.Fatalf("flushed analysis owned by %q", r.Owner)
		}
	}
}
