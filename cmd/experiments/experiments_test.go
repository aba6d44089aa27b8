package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/sim"
	"github.com/securemem/morphtree/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from this run")

// capture returns what fns print to standard output, in order.
func capture(t *testing.T, r *runner, fns ...func(*runner)) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	for _, fn := range fns {
		fn(r)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// The analytic sections — Tables I, II and III and Figures 1, 17, 6 and 10,
// the 67-write adversary included — print exactly the sections under the
// same "=== ... ===" banners in the committed results/experiments.txt.
func TestAnalyticSectionsMatchCommittedResults(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "results", "experiments.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(*runner){table1, table2, fig1, fig17, table3, fig6, fig10} {
		// The analytic sections simulate nothing, so they need no runner.
		got := strings.TrimPrefix(capture(t, nil, fn), "\n")
		banner, _, _ := strings.Cut(got, "\n")
		want := section(string(committed), banner)
		if want == "" {
			t.Errorf("results/experiments.txt has no section %q", banner)
			continue
		}
		for _, d := range diffLines(got, want, 1) {
			t.Errorf("%s, %s", banner, d)
		}
	}
}

// section returns the lines of text from the line banner up to the blank
// line before the next banner, or the end; "" if banner is not a line of
// text.
func section(text, banner string) string {
	i := strings.Index(text, "\n"+banner+"\n")
	if i < 0 {
		return ""
	}
	rest := text[i+1:]
	if j := strings.Index(rest, "\n\n=== "); j >= 0 {
		return rest[:j+1]
	}
	return rest
}

// TestFiguresGolden runs Figures 7, 11, 14 and 16 through the evaluation's
// own runner at reduced scale — six workloads (two random-access, two
// streaming, the paper's outlier and one mix), 60 k warm-up and 60 k
// measured accesses per core, seed 1 — and MorphCtr-128 with and without
// rebasing over two workloads that reach ZCC's size steps, and holds every
// simulation's exact event counts, and the analytic rows of Figures 1, 6, 10
// and 17 and Table III, to testdata/figures.golden byte for byte. It holds no IPC, latency or
// energy. A change that moves a count shows its diff here; go test
// ./cmd/experiments -run FiguresGolden -update rewrites the file.
func TestFiguresGolden(t *testing.T) {
	opt := sim.DefaultRunOptions()
	opt.WarmupAccesses = 60_000
	opt.MeasureAccesses = 60_000
	r := newRunner(opt)
	r.all = nil
	for _, name := range []string{"mcf", "pr-twit", "libquantum", "gcc", "GemsFDTD"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r.all = append(r.all, workloads.Rate(b, 4))
	}
	r.all = append(r.all, workloads.Mixes()[0])
	capture(t, r, fig7, fig11, fig14, fig16)

	// ZCC's size steps, which none of the runs above reaches: the adversary
	// of Section V beside three omnetpp victims crosses the 42- and the
	// 51-counter step (its 52-counter warm-up sits just past the latter),
	// and mix2, run to 100 k + 100 k accesses a core, the 16-counter one.
	omnetpp, err := workloads.ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	longOpt := opt
	longOpt.WarmupAccesses, longOpt.MeasureAccesses = 100_000, 100_000
	long := newRunner(longOpt)
	for _, cfg := range []sim.Config{sim.MorphCtr128(), sim.MorphCtr128ZCC()} {
		r.run(cfg, workloads.AttackMix(omnetpp, 4))
		long.run(cfg, workloads.Mixes()[1])
	}

	var b strings.Builder
	writeAnalyticRows(&b)
	rows := make(map[string]*sim.Stats, len(r.cache)+len(long.cache))
	for k, res := range r.cache {
		rows[k] = &res.Stats
	}
	for k, res := range long.cache {
		rows[k+"/100k"] = &res.Stats
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeCountRows(&b, k, rows[k])
	}
	got := b.String()

	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := diffLines(got, string(want), 40); len(diffs) > 0 {
		for _, d := range diffs {
			t.Errorf("figures.golden %s", d)
		}
		t.Log("go test ./cmd/experiments -run FiguresGolden -update rewrites the golden")
	}
}

// diffLines describes up to limit lines at which got and want differ.
func diffLines(got, want string, limit int) []string {
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	var out []string
	for i := 0; i < max(len(gotLines), len(wantLines)) && len(out) < limit; i++ {
		g, w := "(nothing)", "(nothing)"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			out = append(out, fmt.Sprintf("line %d: got %q, want %q", i+1, g, w))
		}
	}
	return out
}

// writeAnalyticRows writes the exact counts behind the analytic figures:
// each 16 GB geometry's encryption-counter, per-level and tree bytes and its
// height (Figures 1 and 17, Table III), the writes a line tolerates at every
// occupancy (Figures 6 and 10), the MCR uniform tolerance and the
// adversarial pattern's length.
func writeAnalyticRows(b *strings.Builder) {
	for _, pg := range paperGeometries() {
		fmt.Fprintf(b, "geometry %s enc=%d", pg.name, pg.g.EncCounterBytes())
		for _, l := range pg.g.Levels {
			fmt.Fprintf(b, " L%d=%d", l.Level, l.Bytes)
		}
		fmt.Fprintf(b, " tree=%d levels=%d\n", pg.g.TreeBytes(), pg.g.NumLevels())
	}
	for u := 1; u <= 64; u++ {
		fmt.Fprintf(b, "fig6 used=%d/64 sc64=%d sc128=%d\n", u,
			counters.SplitWritesToOverflow(64, u), counters.SplitWritesToOverflow(128, 2*u))
	}
	for u := 1; u <= counters.MorphArity; u++ {
		fmt.Fprintf(b, "fig10 used=%d/128 zcc=%d\n", u, counters.ZCCWritesToOverflow(u))
	}
	fmt.Fprintf(b, "mcr uniform writes=%d\n", counters.MCRWritesToOverflow())
	fmt.Fprintf(b, "adversary writes=%d\n", counters.PathologicalZCCWrites())
}

// writeCountRows writes one simulation's event counts, one row per kind,
// each led by the runner's memo key.
func writeCountRows(b *strings.Builder, key string, s *sim.Stats) {
	fmt.Fprintf(b, "%s mem", key)
	for c, n := range s.MemAccesses {
		fmt.Fprintf(b, " %s=%d", sim.Category(c), n)
	}
	fmt.Fprintf(b, "\n%s data reads=%d writes=%d\n", key, s.DataReads, s.DataWrites)
	for l := range s.Overflows {
		fmt.Fprintf(b, "%s level%d overflows=%d rebases=%d increments=%d\n",
			key, l, s.Overflows[l], s.Rebases[l], s.Increments[l])
	}
	fmt.Fprintf(b, "%s overflow_hist %v\n", key, s.OverflowHist)
	m := s.MetaCache
	fmt.Fprintf(b, "%s metacache hits=%d misses=%d evictions=%d dirty_evictions=%d\n",
		key, m.Hits, m.Misses, m.Evictions, m.DirtyEvictions)
}
