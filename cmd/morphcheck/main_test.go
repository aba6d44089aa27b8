package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/wal"
)

// TestSmokeMatrices runs the three CI matrices in-process, exactly as the
// binary would. Race-built they run as binaries instead (make ckpt-smoke,
// chaos-smoke, cluster-smoke), so each matrix runs once per build flavour.
func TestSmokeMatrices(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("race-built, the matrices run as binaries: make ckpt-smoke chaos-smoke cluster-smoke")
	}
	for _, args := range [][]string{
		{"crash", "-points", "9", "-writes", "300"},
		{"chaos", "-smoke"},
		{"cluster", "-smoke"},
	} {
		t.Run(args[0], func(t *testing.T) {
			var out, errw bytes.Buffer
			if err := run(args, &out, &errw); err != nil {
				t.Fatalf("morphcheck %s: %v\n%s%s", strings.Join(args, " "), err, out.String(), errw.String())
			}
			if !strings.Contains(out.String(), "PASS") || errw.Len() != 0 {
				t.Fatalf("stdout:\n%s\nstderr:\n%s", out.String(), errw.String())
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"soak"}, {"chaos", "-out", "x.json"}, {"crash", "-org", "nope"}} {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		}
	}
}

// faultPlan renders everything about a run that its seed decides before any
// byte moves: the chaos matrix's per-connection fault schedules, the cluster
// matrix's per-run seeds, and the crash matrix's kill offsets.
func faultPlan(t *testing.T, seed int64) string {
	t.Helper()
	var b strings.Builder
	for _, sc := range chaosMatrix(seed, false) {
		fmt.Fprintf(&b, "%s %d x %d\n", sc.name, sc.clients, sc.ops)
		for conn := 0; conn < 24; conn++ {
			fmt.Fprintf(&b, "  %+v\n", sc.prof.Plan(conn))
		}
	}
	for _, sc := range clusterMatrix(false) {
		for i := 0; i < sc.seeds; i++ {
			fmt.Fprintf(&b, "%s %d\n", sc.name, runSeed(seed, i))
		}
	}
	shcfg, err := shardConfig("morph128", 2, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCrashRun(shcfg, 60, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(c.work)
	for i := 0; i < 4; i++ {
		dir := fmt.Sprintf("%s/plan-%d", c.work, i)
		if err := cloneDir(c.master, dir); err != nil {
			t.Fatal(err)
		}
		want, err := cutAppend(c, dir, c.journal, i)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "append %s keep %v\n", want.detail, want.keep)
	}
	return b.String()
}

func TestSameSeedSameFaultPlan(t *testing.T) {
	a, b := faultPlan(t, 7), faultPlan(t, 7)
	if a != b {
		t.Fatalf("seed 7 planned two different runs:\n%s\n---\n%s", a, b)
	}
	if a == faultPlan(t, 8) {
		t.Fatal("seeds 7 and 8 planned the same run")
	}
}

// lossy is a deliberately broken engine: it acknowledges every write and
// silently drops every nth.
type lossy struct {
	server.Engine
	n int

	mu     sync.Mutex
	writes int
}

func (l *lossy) Write(addr uint64, line []byte) error {
	l.mu.Lock()
	l.writes++
	drop := l.writes%l.n == 0
	l.mu.Unlock()
	if drop {
		return nil
	}
	return l.Engine.Write(addr, line)
}

// TestChaosCatchesALossyEngine: the gate can fail. The fault-free baseline
// over an engine that drops every tenth write must end non-zero, saying that
// acknowledged writes were lost — and the same scenario over the real engine
// passes.
func TestChaosCatchesALossyEngine(t *testing.T) {
	baseline := chaosMatrix(1, true)[0]
	for _, broken := range []bool{false, true} {
		sc := baseline
		if broken {
			sc.wrap = func(e server.Engine) server.Engine { return &lossy{Engine: e, n: 10} }
		}
		var out, errw bytes.Buffer
		rows := &rows{sub: "chaos", out: &out, err: &errw}
		if err := chaos(rows, []scenario{sc}, 1); err != nil {
			t.Fatal(err)
		}
		err := rows.verdict()
		if !broken {
			if err != nil {
				t.Fatalf("the real engine failed the baseline: %v\n%s", err, errw.String())
			}
			continue
		}
		if err == nil {
			t.Fatalf("an engine that drops every tenth write passed:\n%s", out.String())
		}
		if !regexp.MustCompile(`audit: [1-9][0-9]* lost acknowledged writes \([1-9]`).MatchString(errw.String()) {
			t.Fatalf("the failing row does not report lost acknowledged writes:\n%s", errw.String())
		}
		if !strings.Contains(errw.String(), " 0 spurious integrity errors") {
			t.Fatalf("dropped writes were reported as integrity alarms:\n%s", errw.String())
		}
	}
}

// TestCrashCatchesAResealedPrefix: a WAL cut back to a frame boundary is a
// well-formed shorter log — no torn tail, every MAC good — so recovery is
// right to accept it. If the harness is told nothing was cut, only the audit
// against the journal can say the store is missing writes, and it must.
func TestCrashCatchesAResealedPrefix(t *testing.T) {
	shcfg, err := shardConfig("morph128", 2, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCrashRun(shcfg, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(c.work)
	const dropped = 5
	reseal := func(lie bool) surgery {
		return surgery{stage: "resealed", cut: func(c *crashRun, dir string, j *oracle.Journal, _ int) (recovery, error) {
			keep := j.Lens()
			want := recovery{detail: "last records cut at a frame boundary", seq: 1, replayed: sum(keep) - dropped}
			seg := durable.SegmentPath(dir, 1, 0)
			if err := os.Truncate(seg, int64(keep[0]-dropped)*wal.WriteFrameBytes); err != nil {
				return want, err
			}
			if !lie {
				keep[0] -= dropped
			}
			want.keep = keep
			return want, nil
		}}
	}
	if text, fail := c.point(reseal(false), 0); fail != nil {
		t.Fatalf("an honest cut failed: %s: %v", text, fail)
	}
	text, fail := c.point(reseal(true), 1)
	if fail == nil {
		t.Fatalf("a store missing %d acknowledged writes passed its audit: %s", dropped, text)
	}
	if !regexp.MustCompile(`diverged from the journal: [1-9] lost acknowledged writes \([1-9] never visible`).MatchString(fail.Error()) {
		t.Fatalf("the point failed for another reason: %v", fail)
	}
}
