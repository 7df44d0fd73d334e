package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// ---- environment ----------------------------------------------------------

type envInfo struct {
	nproc, gomaxprocs int
	goVersion         string
	commit            string
	fsType            string
	tmpfs             bool
}

// environment describes where the numbers were taken: CPUs, Go, the source
// revision, and the filesystem under the state directory.
func environment(buildDir string) envInfo {
	e := envInfo{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     commit(),
	}
	if err := os.MkdirAll(buildDir, 0o755); err == nil {
		e.fsType, e.tmpfs = fsType(buildDir)
	}
	return e
}

func (e envInfo) print(w io.Writer) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s commit=%s state_fs=%s\n",
		e.nproc, e.gomaxprocs, e.goVersion, e.commit, e.fsType)
	if e.tmpfs {
		fmt.Fprintln(w, "WARNING: the state directory is on tmpfs: fsync is free there and the store layer all but vanishes from the numbers")
	}
}

// commit names the source revision: the git HEAD when the tree has git
// metadata, and always a digest of the Go sources and module files, which
// identifies an exported tree too.
func commit() string {
	head := "none"
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(b))
		head = ref
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if h, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				head = strings.TrimSpace(string(h))
			}
		}
		if len(head) > 12 {
			head = head[:12]
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("%s src=%s", head, hex.EncodeToString(h.Sum(nil))[:12])
}

// fsType names the filesystem holding dir.
func fsType(dir string) (string, bool) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", false
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x58465342: "xfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	t := int64(st.Type)
	name, ok := names[t]
	if !ok {
		name = fmt.Sprintf("0x%x", t)
	}
	return name, t == 0x01021994
}

// ---- metrics --------------------------------------------------------------

// line is one human-readable metric line.
type line struct {
	name  string
	value float64
	unit  string
	note  string
	na    bool
}

// metricSet is a phase's metrics: the JSON map, the printed lines, and the
// first metric that could not be computed.
type metricSet struct {
	metrics map[string]metric
	lines   []line
	err     error
}

// put adds a metric to both the JSON map and the printed lines.
func (m *metricSet) put(name string, v float64, unit, note string) {
	if m.metrics == nil {
		m.metrics = make(map[string]metric)
	}
	m.metrics[name] = metric{Value: v, Unit: unit}
	m.lines = append(m.lines, line{name: name, value: v, unit: unit, note: note})
}

// show adds a printed-only line.
func (m *metricSet) show(name string, v float64, unit, note string) {
	m.lines = append(m.lines, line{name: name, value: v, unit: unit, note: note})
}

// absent prints a metric the workload does not exercise.
func (m *metricSet) absent(name, why string) {
	m.lines = append(m.lines, line{name: name, na: true, note: why})
}

func printMetrics(w io.Writer, title string, lines []line) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, l := range lines {
		if l.na {
			fmt.Fprintf(w, "  %-34s %14s       %s\n", l.name, "n/a", l.note)
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", l.name, l.value, l.unit, l.note)
	}
}

// endToEnd computes the end-to-end metrics of one phase.
func endToEnd(workload string, r *result) metricSet {
	var m metricSet
	lat := msAll(r.latency)
	if r.wall <= 0 || len(lat) == 0 || len(r.postAcq) == 0 || len(r.reads) == 0 {
		m.err = fmt.Errorf("phase measured nothing: %d latencies, %d reads in %v", len(lat), len(r.reads), r.wall)
		return m
	}
	unit := map[string]string{"spool-flush": "captures", "device-diagnostic": "diagnostics"}[workload]
	m.put("captures_per_s", float64(r.captures)/r.wall.Seconds(), "1/s",
		fmt.Sprintf("%d verified %s in %.2f s", r.captures, unit, r.wall.Seconds()))
	m.put("latency_p50_ms", median(lat), "ms", fmt.Sprintf("n=%d", len(lat)))
	// The tail is printed, not gated: at this run length it is the least
	// steady number (see README.md).
	if q, v, ok := supportedTail(lat, 0.99, 0.95, 0.9, 0.8, 0.7, 0.6); ok {
		m.show(fmt.Sprintf("latency_p%g_ms", q*100), v, "ms",
			fmt.Sprintf("highest percentile with %d samples beyond it, n=%d", minBeyond, len(lat)))
	}
	m.put("post_acquisition_p50_ms", median(msAll(r.postAcq)), "ms", fmt.Sprintf("n=%d", len(r.postAcq)))
	reads := msAll(r.reads)
	// Printed, not gated: on two of the workloads these reads run on an idle
	// server after the load, and a 3 ms operation there moves by a third
	// from run to run with the host (see README.md).
	m.show("read_p50_ms", median(reads), "ms", fmt.Sprintf("n=%d", len(reads)))
	if tq, v, ok := supportedTail(reads, 0.99, 0.95, 0.90); ok {
		m.show(fmt.Sprintf("read_p%g_ms", tq*100), v, "ms", fmt.Sprintf("n=%d", len(reads)))
	}
	m.put("setup_s", median(r.setupS), "s", fmt.Sprintf("median of %d set-ups", len(r.setupS)))
	attempted, failed := r.attempted(), r.failedAll()
	m.show("failed_share", float64(failed)/float64(max(1, attempted)), "share",
		fmt.Sprintf("%d of %d operations, warm-up included", failed, attempted))
	return m
}

// perLayer computes the per-layer metrics from the traced phase's spans and
// counters, the replay, and the untraced phase's runtime counters. Metrics
// every workload exercises go into the JSON result; the rest are printed.
func perLayer(workload string, un, tr *result) metricSet {
	var m metricSet
	t := newSpanTree(tr.spans)
	rootName := map[string]string{
		"spool-flush": "op.cycle", "device-diagnostic": "op.diagnostic",
	}[workload]
	roots := t.named(rootName)
	caps := float64(max(1, tr.captures))
	opsInLoad := float64(max(1, tr.ops+tr.loadReadOps))
	if len(roots) == 0 {
		m.err = fmt.Errorf("traced phase recorded no %s spans", rootName)
		return m
	}
	onCapturePath := func(s Span) bool { return t.rootOf(s).Name == rootName }

	// controller
	if len(tr.devPre) > 0 {
		m.show("controller.pre_analyze_ms", median(msAll(tr.devPre)), "ms", "call → Analyzer entry")
		m.show("controller.post_analyze_ms", median(msAll(tr.devPost)), "ms", "Analyzer return → result")
	} else {
		m.absent("controller.pre_analyze_ms", "no device in this workload")
		m.absent("controller.post_analyze_ms", "no device in this workload")
	}

	// replayed stages
	for _, name := range []string{
		"cipher.generate_ms", "microfluidic.transits_ms", "sensor.acquire_ms", "phone.zip_ms",
		"csvio.decode_ms", "cloud.analyze_ms", "sigproc.detrend_ms", "sigproc.peaks_ms", "cipher.decrypt_ms",
	} {
		ds := tr.replay[name]
		switch {
		case len(ds) == 0:
			m.absent(name, "not replayed for this workload")
		case name == "phone.zip_ms":
			m.show(name, median(msAll(ds)), "ms", fmt.Sprintf("replayed, n=%d", len(ds)))
		default:
			m.put(name, median(msAll(ds)), "ms", fmt.Sprintf("replayed, n=%d", len(ds)))
		}
	}

	// phone
	payload := tr.payloadBytes
	if payload == 0 {
		payload = tr.sent.Load()
	}
	m.put("phone.payload_bytes", float64(payload)/caps, "bytes", "zipped capture size")
	if relays := t.named("phone.relay"); len(relays) > 0 {
		m.show("phone.upload_self_ms", median(selfMs(t, relays)), "ms", "Relay time minus its round trips: CSV sizing + zip")
	} else {
		m.absent("phone.upload_self_ms", "payloads are pre-zipped")
	}
	if enq := t.named("phone.enqueue"); len(enq) > 0 {
		m.show("phone.spool_enqueue_ms", median(durMs(enq)), "ms", fmt.Sprintf("n=%d", len(enq)))
		var fsTime time.Duration
		for _, s := range tr.spans {
			if strings.HasPrefix(s.Name, "phone.fs.") {
				fsTime += s.Dur()
			}
		}
		m.show("phone.spool_fs_ms", ms(fsTime)/caps, "ms", "spool filesystem time per capture")
	} else {
		m.absent("phone.spool_enqueue_ms", "no offline queue in this workload")
		m.absent("phone.spool_fs_ms", "no offline queue in this workload")
	}

	// cloud client + HTTP
	var rts []Span
	var overhead []float64
	handlers := make(map[int64]Span)
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "cloud.handler.") {
			handlers[s.Parent] = s
		}
	}
	for _, s := range t.named("client.round_trip") {
		if !onCapturePath(s) {
			continue
		}
		rts = append(rts, s)
		if h, ok := handlers[s.ID]; ok {
			overhead = append(overhead, ms(s.Dur()-h.Dur()))
		}
	}
	m.put("client.round_trip_ms", median(durMs(rts)), "ms", fmt.Sprintf("capture path, n=%d", len(rts)))
	m.put("client.attempts_per_op", float64(len(rts))/float64(len(roots)), "count", "")
	m.put("transport.overhead_ms", median(overhead), "ms", "round trip minus handler time, matched by header")

	// cloud service
	var writes, writeSelf []float64
	for _, kind := range []string{"submit", "batch", "read"} {
		hs := t.named("cloud.handler." + kind)
		name := "cloud." + kind + "_handler_ms"
		if len(hs) == 0 {
			m.absent(name, "no such requests in this workload")
			continue
		}
		if kind == "read" {
			m.put(name, median(durMs(hs)), "ms", fmt.Sprintf("n=%d", len(hs)))
			continue
		}
		m.show(name, median(durMs(hs)), "ms", fmt.Sprintf("n=%d", len(hs)))
		writes = append(writes, durMs(hs)...)
		writeSelf = append(writeSelf, selfMs(t, hs)...)
	}
	m.put("cloud.write_handler_ms", median(writes), "ms", "submit or batch handler per request")
	m.put("cloud.handler_self_ms", median(writeSelf), "ms", "write handler minus store time inside it")
	uploads := float64(tr.after.Uploads - tr.before.Uploads)
	hits := float64(tr.after.DedupHits - tr.before.DedupHits)
	m.show("cloud.dedup_hit_share", hits/max(1, uploads+hits), "share", fmt.Sprintf("%.0f hits, %.0f fresh", hits, uploads))

	// store and filesystem
	var puts []Span
	byKind := map[string][]Span{}
	for _, s := range tr.spans {
		if kind, ok := strings.CutPrefix(s.Name, "store.put."); ok {
			puts = append(puts, s)
			byKind[kind] = append(byKind[kind], s)
		}
	}
	m.put("store.puts_per_capture", float64(len(puts))/caps, "count", fmt.Sprintf("%d puts", len(puts)))
	m.put("store.put_p50_ms", median(durMs(puts)), "ms", fmt.Sprintf("n=%d", len(puts)))
	if q, v, ok := supportedTail(durMs(puts), 0.99, 0.90); ok {
		m.show(fmt.Sprintf("store.put_p%g_ms", q*100), v, "ms", fmt.Sprintf("n=%d", len(puts)))
	}
	m.put("store.put_bytes_per_capture", float64(tr.putBytes[0]+tr.putBytes[1]+tr.putBytes[2])/caps, "bytes", "")
	for i, kind := range []string{"analysis", "dedup", "job"} {
		ps := byKind[kind]
		if len(ps) == 0 {
			m.absent("store."+kind+".put_p50_ms", "no "+kind+" documents written")
			continue
		}
		note := fmt.Sprintf("%.2f puts and %.0f bytes per capture", float64(len(ps))/caps, float64(tr.putBytes[i])/caps)
		if kind == "job" {
			m.show("store.job.put_p50_ms", median(durMs(ps)), "ms", note)
			continue
		}
		m.put("store."+kind+".put_p50_ms", median(durMs(ps)), "ms", note)
	}
	m.put("fs.fsync_ms", median(durMs(t.named("fs.fsync"))), "ms", fmt.Sprintf("n=%d", len(t.named("fs.fsync"))))
	m.put("fs.rename_ms", median(durMs(t.named("fs.rename"))), "ms", fmt.Sprintf("n=%d", len(t.named("fs.rename"))))

	// audit
	m.put("audit.records_per_op", float64(tr.auditN)/opsInLoad, "count", fmt.Sprintf("%d records", tr.auditN))

	// Go runtime, from the untraced phase so tracing allocations do not count.
	ucaps := float64(max(1, un.captures))
	m.put("runtime.allocs_per_capture", un.rt.allocs/ucaps, "count", "whole process")
	m.put("runtime.alloc_bytes_per_capture", un.rt.allocBytes/ucaps, "bytes", "whole process")
	m.put("runtime.gc_cpu_share", un.rt.gcCPU/max(1e-9, un.rt.totalCPU), "share", "")

	// coverage and overhead
	var rootSelf, rootDur time.Duration
	for _, r := range roots {
		rootSelf += t.selfTime(r.ID)
		rootDur += r.Dur()
	}
	m.put("unattributed_share", float64(rootSelf)/float64(max(1, rootDur)), "share", "operation time no layer span covers")
	m.put("trace.overhead_share", median(msAll(tr.latency))/median(msAll(un.latency))-1, "share",
		"traced latency_p50 over untraced, minus 1")
	return m
}

func durMs(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.Dur())
	}
	return out
}

func selfMs(t *spanTree, spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(t.selfTime(s.ID))
	}
	return out
}
