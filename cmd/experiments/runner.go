package main

import (
	"fmt"
	"math"
	"os"

	"github.com/securemem/morphtree/internal/sim"
	"github.com/securemem/morphtree/internal/workloads"
)

// runner memoizes simulation results so experiments sharing a
// configuration-workload pair (e.g. Figures 15, 16 and 18) run it once.
type runner struct {
	opt   sim.RunOptions
	cache map[string]*sim.Result
	all   []workloads.Workload
}

func newRunner(opt sim.RunOptions) *runner {
	return &runner{
		opt:   opt,
		cache: make(map[string]*sim.Result),
		all:   workloads.All(4),
	}
}

// run simulates (or recalls) one configuration-workload pair.
func (r *runner) run(cfg sim.Config, w workloads.Workload) *sim.Result {
	key := cfg.Name + "/" + w.Name
	if cfg.SeparateMAC {
		key += "/sepmac"
	}
	key += fmt.Sprintf("/%d", cfg.MetaCacheBytes)
	if res, ok := r.cache[key]; ok {
		return res
	}
	res, err := sim.Run(cfg, w, r.opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulation %s failed: %v\n", key, err)
		os.Exit(1)
	}
	r.cache[key] = res
	fmt.Fprintf(os.Stderr, ".")
	return res
}

// sweep runs one configuration over the full 28-workload evaluation set.
func (r *runner) sweep(cfg sim.Config) map[string]*sim.Result {
	out := make(map[string]*sim.Result, len(r.all))
	for _, w := range r.all {
		out[w.Name] = r.run(cfg, w)
	}
	return out
}

// gmean returns the geometric mean of positive values.
func gmean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// mean returns the arithmetic mean.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
