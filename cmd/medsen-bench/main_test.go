package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"medsen/internal/benchharness"
	"medsen/internal/experiments"
)

func TestRunSelectionSingleFigure(t *testing.T) {
	o := experiments.Options{Seed: 2016, Quick: true}
	if err := runSelection(o, "8", ""); err != nil {
		t.Fatalf("figure 8: %v", err)
	}
	if err := runSelection(o, "", "keysize"); err != nil {
		t.Fatalf("keysize: %v", err)
	}
}

func TestRunSelectionUnknownTargets(t *testing.T) {
	o := experiments.Options{Seed: 1, Quick: true}
	if err := runSelection(o, "99", ""); err == nil {
		t.Error("unknown figure should fail")
	}
	if err := runSelection(o, "", "nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// writeSuite stores a suite as a JSON file under dir.
func writeSuite(t *testing.T, dir, name string, s benchharness.Suite) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func harnessSuite(ns float64, allocs int64) benchharness.Suite {
	return benchharness.Suite{
		GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8,
		Results: []benchharness.Result{
			{Name: "CloudAnalyze/serial", Iterations: 10, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: 1 << 20},
		},
	}
}

func TestRunHarnessCompareFailsOnInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeSuite(t, dir, "base.json", harnessSuite(1000, 100))
	// Synthetic regression: wall time doubles and allocations grow 50%.
	cur := writeSuite(t, dir, "cur.json", harnessSuite(2000, 150))
	var out bytes.Buffer
	err := runHarness(harnessConfig{
		compareFile: base,
		currentFile: cur,
		thresholds:  benchharness.DefaultThresholds(),
	}, &out)
	if err == nil {
		t.Fatalf("regression must fail the compare; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ns/op regressed") || !strings.Contains(out.String(), "allocs/op regressed") {
		t.Fatalf("output lacks regression details:\n%s", out.String())
	}
}

func TestRunHarnessComparePassesWhenWithinThresholds(t *testing.T) {
	dir := t.TempDir()
	base := writeSuite(t, dir, "base.json", harnessSuite(1000, 100))
	cur := writeSuite(t, dir, "cur.json", harnessSuite(1100, 100))
	var out bytes.Buffer
	if err := runHarness(harnessConfig{
		compareFile: base,
		currentFile: cur,
		thresholds:  benchharness.DefaultThresholds(),
	}, &out); err != nil {
		t.Fatalf("within-threshold compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("output lacks pass message:\n%s", out.String())
	}
}

func TestRunHarnessJSONFromCurrentFile(t *testing.T) {
	dir := t.TempDir()
	cur := writeSuite(t, dir, "cur.json", harnessSuite(1000, 100))
	outPath := filepath.Join(dir, "out.json")
	var out bytes.Buffer
	if err := runHarness(harnessConfig{jsonOut: outPath, currentFile: cur}, &out); err != nil {
		t.Fatalf("runHarness: %v", err)
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := benchharness.ReadJSON(f)
	if err != nil {
		t.Fatalf("rewritten suite unreadable: %v", err)
	}
	if len(s.Results) != 1 || s.Results[0].Name != "CloudAnalyze/serial" {
		t.Fatalf("unexpected suite: %+v", s)
	}
}

func TestRunHarnessMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	cur := writeSuite(t, dir, "cur.json", harnessSuite(1000, 100))
	var out bytes.Buffer
	err := runHarness(harnessConfig{
		compareFile: filepath.Join(dir, "missing.json"),
		currentFile: cur,
	}, &out)
	if err == nil {
		t.Fatal("missing baseline must fail")
	}
}

// TestRunHarnessCompareMeasuresAtBaselineGOMAXPROCS: a compare that runs the
// harness runs it at the GOMAXPROCS the baseline recorded, says so, records
// that setting in the current suite, and restores the process's own after.
func TestRunHarnessCompareMeasuresAtBaselineGOMAXPROCS(t *testing.T) {
	own := runtime.GOMAXPROCS(0)
	procs := own + 1
	dir := t.TempDir()
	baseline := harnessSuite(1, 1)
	baseline.GOMAXPROCS = procs
	baseline.Results[0].Name = "ClassifyDiagnose"
	base := writeSuite(t, dir, "base.json", baseline)
	outPath := filepath.Join(dir, "cur.json")
	var out bytes.Buffer
	err := runHarness(harnessConfig{
		jsonOut:     outPath,
		compareFile: base,
		filter:      "ClassifyDiagnose",
		benchTime:   time.Millisecond,
		thresholds:  benchharness.Thresholds{NsPct: 1e12, AllocsPct: 1e12, BytesPct: 1e12},
	}, &out)
	if err != nil {
		t.Fatalf("runHarness: %v\n%s", err, out.String())
	}
	if want := fmt.Sprintf("measuring at GOMAXPROCS=%d as recorded in %s", procs, base); !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cur, err := benchharness.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if cur.GOMAXPROCS != procs {
		t.Fatalf("current suite ran at GOMAXPROCS=%d, want the baseline's %d", cur.GOMAXPROCS, procs)
	}
	if got := runtime.GOMAXPROCS(0); got != own {
		t.Fatalf("GOMAXPROCS left at %d, want %d restored", got, own)
	}
}
