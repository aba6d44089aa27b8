package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture returns what fns print to standard output, in order.
func capture(t *testing.T, fns ...func(*runner)) string {
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
		fn(nil) // the analytic sections simulate nothing, so they need no runner
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// The analytic sections — Tables I, II and III and Figures 1, 17, 6 and 10,
// the 67-write adversary included — print exactly the first 82 lines of the
// committed results/experiments.txt.
func TestAnalyticSectionsMatchCommittedResults(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "results", "experiments.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(committed), "\n")
	if len(lines) < 82 {
		t.Fatalf("results/experiments.txt has %d lines, want at least 82", len(lines))
	}
	want := strings.Join(lines[:82], "")
	got := capture(t, table1, table2, fig1, fig17, table3, fig6, fig10)
	if got != want {
		gotLines := strings.SplitAfter(got, "\n")
		for i, w := range lines[:82] {
			if i >= len(gotLines) || gotLines[i] != w {
				g := "(nothing)"
				if i < len(gotLines) {
					g = gotLines[i]
				}
				t.Fatalf("line %d: got %q, results/experiments.txt has %q", i+1, g, w)
			}
		}
		t.Fatalf("printed %d lines, results/experiments.txt's analytic sections are 82", len(gotLines)-1)
	}
}
