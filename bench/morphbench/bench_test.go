package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// smokeEnv builds morphserve into a temporary directory, so a test run
// leaves nothing in the checkout.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs morphserve")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e := &env{root: root, buildDir: dir, results: filepath.Join(dir, "results"), smoke: true}
	if err := e.buildServer(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSmokeRunsEveryWorkloadAndReportsEveryMetric(t *testing.T) {
	e := smokeEnv(t)
	start := time.Now()
	set, err := runSet(context.Background(), e, workloads, options{seed: 1, seconds: 1, trace: bothTraces, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(set) != 2*len(workloads) {
		t.Fatalf("%d results for %d workloads", len(set), len(workloads))
	}
	for _, r := range set {
		defs, gated := windowMetrics, endToEnd
		if r.Traced {
			defs, gated = perLayer, perLayer
		}
		if _, err := r.resultLine(gated); err != nil {
			t.Error(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v, %d of %d failed", r.Workload, r.Traced, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, want %d", r.Workload, r.Traced, len(r.Metrics), len(defs))
		}
		if r.Traced {
			if _, err := os.Stat(filepath.Join(e.results, "trace-"+r.Workload+".json")); err != nil {
				t.Errorf("%s: no span file: %v", r.Workload, err)
			}
			durable := r.Workload == "serve_durable_mixed"
			if got := r.Metrics["wal.bytes_per_user_byte"] > 0; got != durable {
				t.Errorf("%s: wal.bytes_per_user_byte = %v", r.Workload, r.Metrics["wal.bytes_per_user_byte"])
			}
		}
	}
	t.Logf("smoke pass of %d workloads took %v", len(workloads), elapsed)
	if limit := 15 * time.Second; elapsed > limit && !raceEnabled {
		t.Errorf("smoke pass took %v, want under %v", elapsed, limit)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(e.buildDir, "data-*")); len(leftovers) != 0 {
		t.Errorf("data directories left behind: %v", leftovers)
	}
}

// The traced run sends a fixed op list from one caller, so everything the
// engine counts must repeat exactly for a seed.
func TestTracedRunCountsRepeatExactly(t *testing.T) {
	e := smokeEnv(t)
	counts := []string{
		"counters.overflows_per_kwrite", "counters.set_resets_per_kwrite", "counters.rebases_per_kwrite",
		"counters.format_switches_per_kwrite", "secmem.reencryptions_per_write", "secmem.tree_increments_per_write",
		"secmem.verified_fetches_per_kop", "secmem.read_allocs", "secmem.write_allocs", "wal.append_allocs", "wire.codec_allocs",
	}
	w, err := workloadByName("embed_write_churn")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 5, seconds: 1, trace: 1, smoke: true}
	a, err := runTracedSet(context.Background(), e, w, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTracedSet(context.Background(), e, w, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range counts {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v for the same seed", name, a.Metrics[name], b.Metrics[name])
		}
	}
	if a.Metrics["counters.overflows_per_kwrite"] == 0 {
		t.Error("the write-churn stream caused no counter overflow")
	}
}

// BENCHMARK.json is written by hand; the program's tables are what it runs.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench/morphbench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n prog %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n prog %v", doc.PerLayer, perLayer)
	}
}
