package main

import (
	"context"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"medsen/internal/cloud"
	"medsen/internal/controller"
	"medsen/internal/faultinject"
	"medsen/internal/lockin"
)

// The wrappers below sit on seams the program already exposes. Each one
// forwards every call unchanged and, when its recorder is non-nil, records a
// span around it. Only the Analyzer wrapper is installed in an untraced run,
// because post_acquisition_p50_ms starts at its entry.

// spanHeader carries the client's round-trip span id to the handler wrapper,
// matching a handler span to the request that caused it.
const spanHeader = "X-Bench-Span"

// tracedStore wraps a cloud.Store.
type tracedStore struct {
	inner cloud.Store
	rec   *recorder
	// putBytes counts envelope bytes handed to Put, per kind.
	putBytes [3]atomic.Int64
}

func kindIndex(k cloud.DocKind) int {
	switch k {
	case cloud.KindAnalysis:
		return 0
	case cloud.KindDedup:
		return 1
	}
	return 2
}

func (s *tracedStore) Put(kind cloud.DocKind, id string, body []byte) error {
	sp := s.rec.begin("store.put."+string(kind), "", -1)
	defer s.rec.end(sp)
	s.putBytes[kindIndex(kind)].Add(int64(len(body)))
	return s.inner.Put(kind, id, body)
}

func (s *tracedStore) Delete(kind cloud.DocKind, id string) error {
	sp := s.rec.begin("store.delete", "", -1)
	defer s.rec.end(sp)
	return s.inner.Delete(kind, id)
}

func (s *tracedStore) List(kind cloud.DocKind) ([]cloud.Document, error) {
	sp := s.rec.begin("store.list", "", -1)
	defer s.rec.end(sp)
	return s.inner.List(kind)
}

func (s *tracedStore) Quarantine(name string, reason error) error {
	sp := s.rec.begin("store.quarantine", "", -1)
	defer s.rec.end(sp)
	return s.inner.Quarantine(name, reason)
}

func (s *tracedStore) Probe() error {
	sp := s.rec.begin("store.probe", "", -1)
	defer s.rec.end(sp)
	return s.inner.Probe()
}

// tracedFS wraps the OS filesystem behind faultinject.FS. prefix names the
// owner ("fs" for the cloud state directory, "phone.fs" for the spool).
type tracedFS struct {
	rec    *recorder
	prefix string
}

func (f *tracedFS) span(op string) int64 { return f.rec.begin(f.prefix+"."+op, "", -1) }

func (f *tracedFS) MkdirAll(path string, perm fs.FileMode) error {
	defer f.rec.end(f.span("mkdir"))
	return os.MkdirAll(path, perm)
}

func (f *tracedFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	defer f.rec.end(f.span("write"))
	return os.WriteFile(name, data, perm)
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	defer f.rec.end(f.span("rename"))
	return os.Rename(oldpath, newpath)
}

func (f *tracedFS) Remove(name string) error {
	defer f.rec.end(f.span("remove"))
	return os.Remove(name)
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	defer f.rec.end(f.span("read"))
	return os.ReadFile(name)
}

func (f *tracedFS) ReadDir(name string) ([]os.DirEntry, error) {
	defer f.rec.end(f.span("readdir"))
	return os.ReadDir(name)
}

// syncFS is tracedFS with the durability extension. It performs the same
// open, write, fsync and close as faultinject.OSFS.WriteFileSync, so the
// fsync can carry a span of its own.
type syncFS struct{ tracedFS }

func (f *syncFS) WriteFileSync(name string, data []byte, perm fs.FileMode) error {
	defer f.rec.end(f.span("write_sync"))
	w, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	sp := f.span("fsync")
	err = w.Sync()
	f.rec.end(sp)
	if err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// newFS returns the filesystem wrapper; withSync adds WriteFileSync. The
// store needs it for its fsync-then-rename commit; populating the state
// fixture leaves it off so thousands of documents skip their fsyncs, as does
// the phone spool, which never had one.
func newFS(rec *recorder, prefix string, withSync bool) faultinject.FS {
	t := tracedFS{rec: rec, prefix: prefix}
	if withSync {
		return &syncFS{t}
	}
	return &t
}

// handlerKind classifies a request for the cloud.*_handler metrics.
func handlerKind(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, ":batch"):
		return "batch"
	case r.Method == http.MethodPost && r.URL.Path == "/api/v1/analyses":
		return "submit"
	case r.Method == http.MethodGet:
		return "read"
	}
	return "other"
}

// tracedHandler wraps the service's http.Handler.
type tracedHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	sp := h.rec.begin("cloud.handler."+handlerKind(r), "", parent)
	defer h.rec.end(sp)
	h.inner.ServeHTTP(w, r)
}

// tracedTransport wraps the client's http.RoundTripper. RoundTrip runs on
// the caller's goroutine, so the span nests under the operation span open
// there.
type tracedTransport struct {
	inner http.RoundTripper
	rec   *recorder
	// sent counts single-submit request bodies: the zipped captures a
	// relay uploads.
	sent *atomic.Int64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.rec.begin("client.round_trip", "", -1)
	// RoundTrip must not modify the caller's request.
	req = req.Clone(req.Context())
	if t.sent != nil && handlerKind(req) == "submit" {
		t.sent.Add(req.ContentLength)
	}
	req.Header.Set(spanHeader, strconv.FormatInt(sp, 10))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.end(sp)
		return resp, err
	}
	// The span runs until the response body is drained or closed, so it
	// covers the whole response the handler wrote, not just its headers.
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.rec.end(sp) }}
	return resp, nil
}

// spanBody ends a span at the body's EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	end  func()
	done bool
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.end()
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// tracedAnalyzer wraps the device's Analyzer (the phone relay). It is
// installed in the untraced phase too: its entry and return instants bound
// the controller's pre- and post-analysis work and start the
// post-acquisition clock. One wrapper serves one diagnostic.
type tracedAnalyzer struct {
	inner controller.Analyzer
	rec   *recorder

	enter, ret time.Time
	report     cloud.Report
}

func (a *tracedAnalyzer) Analyze(ctx context.Context, acq lockin.Acquisition) (cloud.Report, error) {
	a.enter = time.Now()
	sp := a.rec.begin("phone.relay", "", -1)
	rep, err := a.inner.Analyze(ctx, acq)
	a.rec.end(sp)
	a.ret = time.Now()
	a.report = rep
	return rep, err
}
