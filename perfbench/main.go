// Command perfbench is the MedSen benchmark: one process that hosts the
// analysis service in-process (DiskStore state directory, API keys, audit
// chain, as `medsen-cloud -state-dir DIR -auth` runs it), drives one
// workload through the production client stack (phone.Relay,
// phone.OfflineQueue, cloud.Client, medsen.Device), checks every output, and
// prints its metrics. The last line of standard output is the JSON result.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload spool-flush|device-diagnostic \
//	          --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
// the same untraced phase, then a traced phase on a fresh service copy with
// the layer wrappers installed, then a replay of the traced phase's inputs
// through the stage functions, and prints the per-layer metrics. See
// README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"medsen"
)

// setupReps is how many times a phase sets the program up; setup_s is the
// median.
const setupReps = 5

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "spool-flush or device-diagnostic")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured load time per phase")
	trace := flag.Int("trace", 0, "1 adds the traced phase and prints per-layer metrics")
	buildDir := flag.String("build-dir", ".bench_build", "directory for the state fixture, run scratch and trace output")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		buildDir: *buildDir,
	}
	out, err := b.run(ctx, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// workloads maps each workload name to its generator constructor.
var workloads = map[string]func(seed uint64, dir string) (generator, error){
	"spool-flush": func(seed uint64, dir string) (generator, error) {
		return newSpoolFlush(seed, filepath.Join(dir, "spool"))
	},
	"device-diagnostic": func(uint64, string) (generator, error) { return &deviceDiagnostic{}, nil },
}

// metric is one named value of the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	buildDir string
}

func (b *bench) run(ctx context.Context, traced bool) (output, error) {
	env := environment(b.buildDir)
	env.print(os.Stdout)
	stateDir, err := ensureState(b.buildDir)
	if err != nil {
		return output{}, err
	}
	runDir := filepath.Join(b.buildDir, "runs", fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	defer os.RemoveAll(runDir)

	un, unDrv, err := b.phase(ctx, stateDir, filepath.Join(runDir, "untraced"), nil, 0)
	if err != nil {
		return output{}, err
	}
	out := output{Attempted: un.res.attempted(), Failed: un.res.failedAll()}
	e2e := endToEnd(b.workload, un.res)
	printMetrics(os.Stdout, "end-to-end (untraced)", e2e.lines)
	if !traced {
		out.Metrics = e2e.metrics
		out.Correct = out.Failed == 0 && e2e.err == nil
		reportFailures(un.res.allFailures(), e2e.err)
		return out, nil
	}

	rec := newRecorder()
	tr, trDrv, err := b.phase(ctx, stateDir, filepath.Join(runDir, "traced"), rec, unDrv.inputs())
	if err != nil {
		return output{}, err
	}
	replay, err := trDrv.replay()
	if err != nil {
		return output{}, fmt.Errorf("replay: %w", err)
	}
	tr.res.replay = replay
	trE2E := endToEnd(b.workload, tr.res)
	printMetrics(os.Stdout, "end-to-end (traced)", trE2E.lines)
	layers := perLayer(b.workload, un.res, tr.res)
	printMetrics(os.Stdout, "per-layer (traced)", layers.lines)

	traceDir := filepath.Join(b.buildDir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return output{}, err
	}
	spanFile := filepath.Join(traceDir, fmt.Sprintf("%s-%d.spans.jsonl", b.workload, b.seed))
	if err := writeSpans(spanFile, tr.res.spans); err != nil {
		return output{}, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.res.spans), spanFile)

	out.Attempted += tr.res.attempted()
	out.Failed += tr.res.failedAll()
	out.Metrics = layers.metrics
	out.Correct = out.Failed == 0 && e2e.err == nil && trE2E.err == nil && layers.err == nil
	reportFailures(append(un.res.allFailures(), tr.res.allFailures()...), firstErr(e2e.err, trE2E.err, layers.err))
	return out, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func reportFailures(failures []string, err error) {
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
	}
}

// warmupTime is the untimed load each service life starts with: it fills
// the service's pools, the connections and the runtime's heap pacing before
// anything is measured, and its rate sizes the first measured segment.
const warmupTime = 2 * time.Second

// warmUp loads the fresh service for warmupTime with inputs from a separate
// seed stream, so no measured input repeats a warm-up one, and checks their
// outputs. It returns the warm-up's result and the rate it saw.
func (b *bench) warmUp(ctx context.Context, p *phase, dir string) (*result, float64, error) {
	seed := mix(b.seed, streamWarm)
	drv, err := workloads[b.workload](seed, filepath.Join(dir, "warm"))
	if err != nil {
		return nil, 0, err
	}
	w := &phase{seed: seed, seconds: warmupTime, workers: p.workers, rec: p.rec, prog: p.prog, url: p.url, res: &result{}}
	w.res.before = p.prog.svc.Snapshot()
	rate, err := measure(ctx, w, drv, drv.guessRate())
	if err != nil {
		return nil, 0, err
	}
	w.res.after = p.prog.svc.Snapshot()
	drv.verify(ctx, w)
	// Per-layer figures cover the measured load only.
	p.rec.reset()
	if p.prog.store != nil {
		for i := range p.prog.store.putBytes {
			p.prog.store.putBytes[i].Store(0)
		}
	}
	return w.res, rate, nil
}

// phase runs one service life: copy the fixture, set the program up
// setupReps times (timing each), serve it, load it, check it, tear it down.
func (b *bench) phase(ctx context.Context, stateDir, dir string, rec *recorder, first int) (*phase, generator, error) {
	state := filepath.Join(dir, "state")
	if err := copyDir(stateDir, state); err != nil {
		return nil, nil, err
	}
	p := &phase{seed: b.seed, seconds: b.seconds, workers: runtime.NumCPU(), rec: rec, first: first, res: &result{}}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		prog, err := openProgram(state, rec, nil)
		if err != nil {
			return nil, nil, err
		}
		if _, err := medsen.NewDevice(medsen.WithSeed(b.seed)); err != nil {
			prog.close()
			return nil, nil, err
		}
		p.res.setupS = append(p.res.setupS, time.Since(t0).Seconds())
		if i < setupReps-1 {
			prog.close()
			continue
		}
		p.prog = prog
	}
	defer p.prog.close()
	rec.reset()

	h := p.prog.svc.Handler()
	if rec != nil {
		h = &tracedHandler{inner: h, rec: rec}
	}
	srv, err := serve(h)
	if err != nil {
		return nil, nil, err
	}
	p.url = srv.url
	warm, rate, err := b.warmUp(ctx, p, dir)
	var drv generator
	if err == nil {
		drv, err = workloads[b.workload](b.seed, dir)
	}
	if err == nil {
		p.res.before = p.prog.svc.Snapshot()
		_, err = measure(ctx, p, drv, rate)
		p.res.after = p.prog.svc.Snapshot()
		p.res.loadReadOps = p.res.readOps
	}
	if err == nil {
		drv.verify(ctx, p)
		p.res.warm = warm
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, nil, err
	}
	if p.prog.store != nil {
		for i := range p.res.putBytes {
			p.res.putBytes[i] = p.prog.store.putBytes[i].Load()
		}
	}
	p.res.spans = rec.snapshot()
	return p, drv, nil
}
