package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
	"medsen/internal/cloud"
	"medsen/internal/faultinject"
)

// principal is one API key the benchmark presents.
type principal struct {
	secret, subject string
	role            auth.Role
}

// The keystore holds one owner key per simulated phone, one for the device
// and one clinic key. Secrets are fixed so the pre-populated state directory
// and every run agree on them.
var (
	phoneKeys = []principal{
		{"msk_bench_phone_0", "phone-0", auth.RoleOwner},
		{"msk_bench_phone_1", "phone-1", auth.RoleOwner},
	}
	deviceKey = principal{"msk_bench_device_0", "device-0", auth.RoleOwner}
	clinicKey = principal{"msk_bench_clinic", "", auth.RoleClinic}
)

func allPrincipals() []principal {
	return append(append([]principal(nil), phoneKeys...), deviceKey, clinicKey)
}

// State directory layout: one pre-populated directory per checkout, built
// once (its contents do not depend on the workload seed), copied afresh for
// every service life.
const (
	stateName     = "state-v1"
	stateReady    = ".ready"
	stateAnalyses = 3000
	stateSeed     = 20160628
)

// ensureState returns the pre-populated state directory under buildDir,
// building it on first use.
func ensureState(buildDir string) (string, error) {
	dir := filepath.Join(buildDir, stateName)
	if _, err := os.Stat(filepath.Join(dir, stateReady)); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := buildState(tmp); err != nil {
		return "", fmt.Errorf("building state directory: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// buildState fills dir through the service's own batch endpoint with
// stateAnalyses short captures spread over the phone and device owners, so
// the documents, dedup journal, keystore and audit chain are exactly what
// production writes. The filesystem seam skips fsync here; durability of the
// fixture is irrelevant and it saves thousands of syncs.
func buildState(dir string) error {
	prog, err := openProgram(dir, nil, newFS(nil, "fs", false))
	if err != nil {
		return err
	}
	defer prog.close()
	owners := append(append([]principal(nil), phoneKeys...), deviceKey)
	src, err := newCaptureSource(stateSeed, 2, 30, 2)
	if err != nil {
		return err
	}
	h := prog.svc.Handler()
	const batch = 50
	for i := 0; i < stateAnalyses; i += batch {
		caps, err := src.makeRange(i, i+batch, 2)
		if err != nil {
			return err
		}
		items := make([]cloud.BatchSubmission, len(caps))
		for j, c := range caps {
			items[j] = cloud.BatchSubmission{Payload: c.payload}
		}
		client := &cloud.Client{
			BaseURL:    "http://state.invalid",
			APIKey:     owners[(i/batch)%len(owners)].secret,
			HTTPClient: &http.Client{Transport: handlerTransport{h}},
		}
		resp, err := client.SubmitBatch(context.Background(), items)
		if err != nil {
			return err
		}
		if resp.Failed != 0 {
			return fmt.Errorf("state batch at %d: %d items failed", i, resp.Failed)
		}
	}
	return os.WriteFile(filepath.Join(dir, stateReady), nil, 0o600)
}

// handlerTransport serves requests straight from a handler, with no socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o700)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.OpenFile(target, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// program is the service as production configures it with
// `medsen-cloud -state-dir DIR -auth`: a DiskStore over the state directory,
// the keystore under it, the hash-chained audit log, and rate limiting and
// shedding off (the defaults).
type program struct {
	svc   *cloud.Service
	ks    *auth.Keystore
	audit *audit.Log
	// store is the tracing Store wrapper, nil when the run is untraced.
	store *tracedStore
}

// openProgram is the set-up that setup_s times: keystore and audit open,
// then NewService, which loads and salvage-scans every document. With a
// recorder (or an explicit filesystem seam) the store sits on the wrapped
// seams; with neither the service builds its own DiskStore, untouched.
func openProgram(dir string, rec *recorder, seam faultinject.FS) (*program, error) {
	ks, err := auth.OpenKeystore(nil, cloud.AuthDir(dir))
	if err != nil {
		return nil, err
	}
	for _, p := range allPrincipals() {
		if _, err := ks.Install(p.secret, p.role, p.subject); err != nil {
			return nil, err
		}
	}
	al, err := audit.Open(cloud.AuditLogPath(dir))
	if err != nil {
		return nil, err
	}
	cfg := cloud.ServiceConfig{StateDir: dir, Keystore: ks, Audit: al}
	prog := &program{ks: ks, audit: al}
	if rec != nil && seam == nil {
		seam = newFS(rec, "fs", true)
	}
	if seam != nil {
		ds, err := cloud.NewDiskStore(cloud.DiskStoreConfig{Dir: dir, FS: seam})
		if err != nil {
			al.Close()
			return nil, err
		}
		prog.store = &tracedStore{inner: ds, rec: rec}
		cfg.Store, cfg.FS = prog.store, seam
	}
	svc, err := cloud.NewService(cfg)
	if err != nil {
		al.Close()
		return nil, err
	}
	prog.svc = svc
	return prog, nil
}

func (p *program) close() {
	p.svc.Close()
	_ = p.audit.Close() // the chain is only appended to; a sync error changes nothing here
}

// server hosts a handler on a loopback listener.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}
