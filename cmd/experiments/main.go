// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Geometry results
// (Figures 1, 17; Table III) are computed exactly at the paper's 16 GB;
// timing results run the performance simulator at the scaled configuration
// described in DESIGN.md.
//
// Usage:
//
//	experiments               # run everything
//	experiments -exp fig15    # one experiment
//	experiments -fast         # smaller runs (CI-friendly)
//
// Two subcommands look at one thing instead of a whole figure:
//
//	experiments sim -config morph -workload mcf   # one simulation (sim.go)
//	experiments geom -mem 64                      # tree geometry (geom.go)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/securemem/morphtree/internal/sim"
)

var experimentOrder = []string{
	"table1", "table2", "fig1", "fig17", "table3",
	"fig6", "fig10", "fig7", "fig11", "fig14",
	"fig5", "fig15", "fig16", "fig18", "fig19", "fig20", "dos", "related", "scaling",
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sim":
			simMain(os.Args[2:])
			return
		case "geom":
			geomMain(os.Args[2:])
			return
		}
	}
	exp := flag.String("exp", "all", "experiment to run: all, or one of "+strings.Join(experimentOrder, ","))
	fast := flag.Bool("fast", false, "use shorter runs (less stable averages)")
	warm := flag.Uint64("warm", 0, "override warmup accesses per core")
	measure := flag.Uint64("measure", 0, "override measured accesses per core")
	seed := flag.Uint64("seed", 1, "workload generator seed")
	flag.Parse()

	opt := sim.DefaultRunOptions()
	if *fast {
		opt.WarmupAccesses = 120_000
		opt.MeasureAccesses = 120_000
	}
	if *warm != 0 {
		opt.WarmupAccesses = *warm
	}
	if *measure != 0 {
		opt.MeasureAccesses = *measure
	}
	opt.Seed = *seed

	r := newRunner(opt)
	fns := map[string]func(*runner){
		"table1":  table1,
		"table2":  table2,
		"fig1":    fig1,
		"fig17":   fig17,
		"table3":  table3,
		"fig6":    fig6,
		"fig10":   fig10,
		"fig7":    fig7,
		"fig11":   fig11,
		"fig14":   fig14,
		"fig5":    fig5,
		"fig15":   fig15,
		"fig16":   fig16,
		"fig18":   fig18,
		"fig19":   fig19,
		"fig20":   fig20,
		"dos":     dos,
		"related": related,
		"scaling": scaling,
	}
	if *exp == "all" {
		for _, name := range experimentOrder {
			fns[name](r)
		}
		return
	}
	fn, ok := fns[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose all or one of %s\n",
			*exp, strings.Join(experimentOrder, ","))
		os.Exit(2)
	}
	fn(r)
}

// header prints an experiment banner.
func header(title string) {
	fmt.Println()
	fmt.Println("=== " + title + " ===")
}
