package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/securemem/morphtree/internal/sim"
	"github.com/securemem/morphtree/internal/workloads"
)

// simMain is `experiments sim`: one workload under one secure-memory
// configuration, reporting the paper's metrics — IPC, memory-traffic
// breakdown, metadata cache behavior, counter overflows, and energy.
//
//	experiments sim -config morph -workload mcf
//	experiments sim -config vault -workload mix1 -measure 1000000
//	experiments sim -list
func simMain(args []string) {
	fs := flag.NewFlagSet("experiments sim", flag.ExitOnError)
	config := fs.String("config", "morph", "system preset: "+strings.Join(sim.Presets(), ", "))
	workload := fs.String("workload", "mcf", "Table II benchmark, or mix1..mix6")
	warm := fs.Uint64("warm", 0, "warmup accesses per core (0 = default)")
	measure := fs.Uint64("measure", 0, "measured accesses per core (0 = default)")
	scale := fs.Float64("scale", 0, "footprint scale (0 = default)")
	seed := fs.Uint64("seed", 1, "trace generator seed")
	list := fs.Bool("list", false, "list workloads and presets, then exit")
	fs.Parse(args) //morphlint:allow errdiscard ExitOnError: Parse exits instead of returning

	if *list {
		fmt.Println("presets: " + strings.Join(sim.Presets(), ", "))
		fmt.Print("workloads:")
		for _, w := range workloads.All(4) {
			fmt.Print(" " + w.Name)
		}
		fmt.Println()
		return
	}

	cfg, err := sim.Preset(*config)
	if err != nil {
		fatal(err)
	}
	w, err := findWorkload(*workload)
	if err != nil {
		fatal(err)
	}
	opt := sim.DefaultRunOptions()
	if *warm != 0 {
		opt.WarmupAccesses = *warm
	}
	if *measure != 0 {
		opt.MeasureAccesses = *measure
	}
	if *scale != 0 {
		opt.FootprintScale = *scale
	}
	opt.Seed = *seed

	res, err := sim.Run(cfg, w, opt)
	if err != nil {
		fatal(err)
	}
	report(res)
}

func findWorkload(name string) (workloads.Workload, error) {
	for _, w := range workloads.All(4) {
		if w.Name == name {
			return w, nil
		}
	}
	return workloads.Workload{}, fmt.Errorf("experiments sim: unknown workload %q (see -list)", name)
}

func report(r *sim.Result) {
	fmt.Printf("%s on %s\n", r.Config, r.Workload)
	fmt.Printf("  IPC (per-core avg):          %8.4f  (per core: %v)\n", r.IPC, fmtFloats(r.PerCoreIPC))
	fmt.Printf("  execution time:              %8.4f ms\n", r.Seconds*1e3)
	fmt.Printf("  memory accesses/data access: %8.3f\n", r.MemAccessPerDataAccess())
	for cat := sim.CatData; cat <= sim.CatMAC; cat++ {
		v := r.CategoryPerDataAccess(cat)
		if v > 0 {
			fmt.Printf("    %-10s %8.3f\n", cat, v)
		}
	}
	fmt.Printf("  counter overflows:           %8d  (%.1f per million accesses)\n",
		r.Stats.TotalOverflows(), r.OverflowsPerMillion())
	if len(r.Stats.Overflows) > 1 {
		fmt.Printf("    per level: %v   rebases: %v\n", r.Stats.Overflows, r.Stats.Rebases)
	}
	fmt.Printf("  read latency p50/p95/p99:    %d / %d / %d cycles\n",
		r.Stats.LatencyPercentile(50), r.Stats.LatencyPercentile(95), r.Stats.LatencyPercentile(99))
	fmt.Printf("  metadata cache hit rate:     %8.3f\n", r.Stats.MetaCache.HitRate())
	fmt.Printf("  DRAM row-hit rate:           %8.3f\n",
		float64(r.Stats.DRAM.RowHits)/float64(r.Stats.DRAM.RowHits+r.Stats.DRAM.RowMisses+1))
	fmt.Printf("  energy: %.4f J   power: %.2f W   EDP: %.6f J*s\n",
		r.Energy.TotalJ, r.Energy.AvgPowerW, r.Energy.EDP)
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
