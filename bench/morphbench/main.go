// Command morphbench is the repository's benchmark: four workloads against
// morphserve and the embedded engine, end-to-end metrics from an untraced
// measured window, per-layer metrics from a separate traced run and a
// ladder of direct calls into each layer. See bench/README.md.
//
// Usage:
//
//	go run ./bench/morphbench -seed 1                  # everything, kept in bench/history.jsonl
//	go run ./bench/morphbench -workload serve_read     # one workload, both runs
//	go run ./bench/morphbench -repeat 2                # do two sets agree within the bounds?
//	go run ./bench/morphbench -smoke                   # seconds, for iteration
//	go run ./bench/morphbench --workload W --seed N --seconds S --trace 0|1
//
// The last form is what BENCHMARK.json's driver runs; it ends with one JSON
// result line. Every read is checked against a shadow, and any failed op
// makes the exit status non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

const (
	defaultSeconds = 15
	// setUps is how often an untraced run sets its target up; setup_s is
	// the median, and the last one is the one measured.
	setUps     = 3
	warmUp     = 2 * time.Second
	tracedOps  = 100_000
	smokeOps   = 2_000
	smokeWin   = 300 * time.Millisecond
	smokeWarm  = 100 * time.Millisecond
	bothTraces = -1
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every op stream")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	flag.IntVar(&o.trace, "trace", bothTraces, "0: untraced run only (end-to-end metrics); 1: traced run only (per-layer metrics); default both")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times and compare the first two")
	flag.BoolVar(&o.smoke, "smoke", false, "0.3 s windows, 2k-op traced run, small span; writes nothing under bench/")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "morphbench: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	if flag.NArg() != 0 || o.seconds < 1 || o.repeat < 1 || o.trace < bothTraces || o.trace > 1 {
		return errors.New("bad arguments (see -h)")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	e := &env{root: root, buildDir: filepath.Join(root, ".bench_build"), results: filepath.Join(root, "bench", "results"), smoke: o.smoke}
	if o.smoke {
		e.results = filepath.Join(e.buildDir, "smoke-results")
	}

	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	start := time.Now()
	if err := e.buildServer(ctx); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "morphbench: built morphserve in %.1fs\n", time.Since(start).Seconds())

	var sets [][]*result
	for i := 0; i < o.repeat; i++ {
		set, err := runSet(ctx, e, selected, o)
		if err != nil {
			return err
		}
		sets = append(sets, set)
		if o.workload == "" && o.trace == bothTraces && !o.smoke {
			if err := appendHistory(root, o.seed, o.seconds, set); err != nil {
				return err
			}
		}
	}
	ok := true
	for _, set := range sets {
		for _, r := range set {
			ok = ok && r.Correct
		}
	}
	if o.repeat > 1 {
		agree, err := reportRepeat(e, sets[0], sets[1])
		if err != nil {
			return err
		}
		ok = ok && agree
	}
	// One workload, one kind of run: the driver's invocation. Its result
	// line is the last thing on standard output.
	if o.workload != "" && o.trace != bothTraces {
		defs := endToEnd
		if o.trace == 1 {
			defs = perLayer
		}
		line, err := sets[0][0].resultLine(defs)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		return errors.New("failed ops, a failed verification, or sets that disagree beyond a bound (see above)")
	}
	return nil
}

// runSet runs every selected workload: untraced for the end-to-end
// metrics, then traced for the per-layer ones.
func runSet(ctx context.Context, e *env, selected []workload, o options) ([]*result, error) {
	var set []*result
	for i := range selected {
		w := &selected[i]
		if o.trace != 1 {
			r, err := runUntraced(ctx, e, w, o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			r.print(os.Stdout, windowMetrics)
			set = append(set, r)
		}
		if o.trace != 0 {
			r, err := runTracedSet(ctx, e, w, o)
			if err != nil {
				return nil, fmt.Errorf("%s (traced): %w", w.name, err)
			}
			r.print(os.Stdout, perLayer)
			set = append(set, r)
		}
	}
	return set, nil
}

func (o options) window() (warm, length time.Duration) {
	if o.smoke {
		return smokeWarm, smokeWin
	}
	return warmUp, time.Duration(o.seconds) * time.Second
}

// resetPeakRSS makes VmHWM start again from what this process holds now, so
// that a workload's peak is its own and not that of whatever ran before it
// in a full run. Where the kernel refuses, the peak stays the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// runUntraced sets workload w up (several times, for a steady setup_s),
// measures one window with tracing off, and verifies the store.
func runUntraced(ctx context.Context, e *env, w *workload, o options) (*result, error) {
	n := setUps
	if o.smoke {
		n = 1
	}
	resetPeakRSS()
	var t *target
	var setups []float64
	for i := 0; i < n; i++ {
		if t != nil {
			t.close()
			t = nil
			runtime.GC() // the next store reuses the last one's memory
		}
		start := time.Now()
		var err error
		if t, err = setUp(ctx, e, w, o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.close()
	warm, length := o.window()
	win, err := measure(ctx, t, warm, length)
	if err != nil {
		return nil, err
	}
	if win.dropped > 0 {
		fmt.Fprintf(os.Stderr, "morphbench: %s: %d latency samples beyond the buffer were not recorded\n", w.name, win.dropped)
	}
	return &result{
		Workload: w.name, Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed,
		Metrics: win.metrics(median(setups)), Samples: [2]int{win.lat[0].count, win.lat[1].count},
	}, nil
}

// runTracedSet yields workload w's per-layer metrics: an untraced window for
// the timings and what is read from outside the program, the fixed-count
// traced run through an in-process stack, and the ladder.
func runTracedSet(ctx context.Context, e *env, w *workload, o options) (*result, error) {
	t, err := setUp(ctx, e, w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	warm, length := o.window()
	win, err := measure(ctx, t, warm, length)
	t.close()
	if err != nil {
		return nil, err
	}
	for k, what := range []string{"read", "write"} {
		if !o.smoke && win.lat[k].minWin < 1000 {
			fmt.Fprintf(os.Stderr, "morphbench: %s: a 1 s window held only %d %ss; its p99 has fewer than ten samples beyond it\n", w.name, win.lat[k].minWin, what)
		}
	}
	runtime.GC()

	n := tracedOps
	if o.smoke {
		n = smokeOps
	}
	ops := newStream(w, o.seed, e.span(), 0, 1).take(n)
	tr, err := runTraced(ctx, e, w, o.seed, ops)
	if err != nil {
		return nil, err
	}
	if err := tr.writeSpans(e.results, w.name, o.seed); err != nil {
		return nil, err
	}
	runtime.GC()
	lad, err := runLadder(ctx, e, w, o.seed, ops)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	m := lad.m
	wm := win.metrics(0)
	for _, d := range timings {
		m[d.Name] = wm[d.Name]
	}
	win.layerMetrics(m)
	tr.layerMetrics(m, writeFraction(ops), lad.explained)
	// How much the workload's callers together get out of the store over
	// one caller alone: over the wire for serving workloads, straight into
	// shard.Sharded for embedded ones.
	single := lad.shardRate
	if w.serve {
		single = float64(tr.ops) / tr.untraced.Seconds()
	}
	m["shard.scaling_x"] = ratio(float64(win.ops)/win.seconds, single)
	failed := win.failed + tr.failed
	return &result{
		Workload: w.name, Traced: true, Correct: failed == 0,
		Attempted: win.attempted + 2*uint64(tr.ops), Failed: failed, Metrics: m,
	}, nil
}

// reportRepeat prints how far two sets of runs of the same code disagree on
// each gated metric, next to its bound, and keeps the comparison.
func reportRepeat(e *env, first, second []*result) (bool, error) {
	cmp := compareSets(first, second)
	agree := true
	for _, d := range cmp {
		verdict := "ok"
		switch {
		case d.Bound == 0:
			verdict = "ungated"
		case !d.Within:
			verdict, agree = "DISAGREE", false
		}
		fmt.Printf("%-20s %-16s %14.4f %14.4f  diff %6.3f  bound %5.2f  %s\n", d.Workload, d.Metric, d.First, d.Second, d.RelDiff, d.Bound, verdict)
	}
	raw, err := json.MarshalIndent(cmp, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(e.results, 0o755); err != nil {
		return false, err
	}
	return agree, os.WriteFile(filepath.Join(e.results, "repeat.json"), append(raw, '\n'), 0o644)
}
