package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/securemem/morphtree/internal/tree"
)

// geomMain is `experiments geom`: integrity-tree geometry — per-level sizes,
// tree height, and storage overheads (Figures 1 and 17, Table III) — for any
// memory capacity and counter organization.
//
//	experiments geom                       # the paper's four designs at 16GB
//	experiments geom -mem 64               # same designs at 64GB
//	experiments geom -enc 128 -tree 128    # a custom uniform design
//	experiments geom -enc 64 -tree 32,16   # a custom variable-arity schedule
func geomMain(args []string) {
	fs := flag.NewFlagSet("experiments geom", flag.ExitOnError)
	memGB := fs.Uint64("mem", 16, "protected memory capacity in GB")
	enc := fs.Int("enc", 0, "encryption-counter arity for a custom design (0 = show the paper's designs)")
	treeArities := fs.String("tree", "", "comma-separated tree arity schedule for a custom design")
	fs.Parse(args) //morphlint:allow errdiscard ExitOnError: Parse exits instead of returning

	memBytes := *memGB << 30
	if *enc != 0 || *treeArities != "" {
		arities, err := parseArities(*treeArities)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		show(fmt.Sprintf("custom (%d-ary enc, tree %v)", *enc, arities), memBytes, *enc, arities)
		return
	}
	show("Commercial-SGX", memBytes, 8, []int{8})
	show("VAULT", memBytes, 64, []int{32, 16})
	show("SC-64", memBytes, 64, []int{64})
	show("MorphCtr-128", memBytes, 128, []int{128})
}

func parseArities(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("experiments geom: -tree is required for a custom design")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("experiments geom: bad arity %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func show(name string, memBytes uint64, encArity int, arities []int) {
	g, err := tree.New(memBytes, encArity, arities)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s @ %s\n", name, tree.FormatBytes(memBytes))
	fmt.Printf("  encryption counters: %10s  (%.3f%% of memory)\n",
		tree.FormatBytes(g.EncCounterBytes()), g.EncOverheadPercent())
	for _, l := range g.Levels {
		fmt.Printf("  tree level %d (%3d-ary): %10s\n", l.Level, l.Arity, tree.FormatBytes(l.Bytes))
	}
	fmt.Printf("  integrity tree total: %10s  (%.4f%% of memory, %d levels)\n\n",
		tree.FormatBytes(g.TreeBytes()), g.TreeOverheadPercent(), g.NumLevels())
}
