// Command morphscope is a live telemetry poller for morphserve: it scrapes
// the admin plane's /metricz and /tracez on an interval and prints per-op
// throughput and latency quantiles, event rates, and the engine's
// counter-organization activity (overflows, rebases, format switches) as
// interval deltas.
//
// Usage:
//
//	morphscope -admin 127.0.0.1:7544                   # poll forever
//	morphscope -admin 127.0.0.1:7544 -samples 3 -json BENCH_obs.json
//	morphscope -admin 127.0.0.1:7544 -check            # health probe, exit 1 on failure
//
// Quantiles are computed from the server's mergeable histogram buckets:
// each sample deltas the cumulative snapshot against the previous one, so
// the numbers describe the last interval, not the whole run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/securemem/morphtree/internal/obs"
)

// httpSource is where snapshots come from: the admin HTTP plane at base.
type httpSource struct {
	base   string
	client *http.Client
}

func (s *httpSource) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func (s *httpSource) metrics() (obs.Snapshot, error) {
	body, err := s.get("/metricz")
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.DecodeSnapshot(body)
}

func (s *httpSource) trace() (obs.TraceSnapshot, error) {
	body, err := s.get("/tracez")
	if err != nil {
		return obs.TraceSnapshot{}, err
	}
	return obs.DecodeTraceSnapshot(body)
}

// opRow is one per-op line of the table and of the -json report.
type opRow struct {
	Op    string  `json:"op"`
	QPS   float64 `json:"qps"`
	P50US float64 `json:"p50_us"`
	P90US float64 `json:"p90_us"`
	P99US float64 `json:"p99_us"`
	MaxUS float64 `json:"max_us"`
	Total uint64  `json:"total_samples"`
}

// jsonReport is the BENCH_obs.json schema: the last interval's table plus
// cumulative counters and trace totals.
type jsonReport struct {
	Source     string             `json:"source"`
	IntervalS  float64            `json:"interval_s"`
	Samples    int                `json:"samples"`
	Ops        []opRow            `json:"ops"`
	EventsPerS map[string]float64 `json:"events_per_s,omitempty"`
	Counters   map[string]uint64  `json:"counters"`
	Gauges     map[string]int64   `json:"gauges"`
	Dropped    uint64             `json:"trace_dropped"`
}

const opPrefix = "server.op."
const opSuffix = ".latency"

// opRows deltas cur against prev and builds the per-op table, sorted by
// op name, ops with no traffic in the interval included (qps 0) so the
// table shape is stable across samples.
func opRows(prev, cur obs.Snapshot, interval time.Duration) []opRow {
	var rows []opRow
	for name, h := range cur.Histograms {
		if !strings.HasPrefix(name, opPrefix) || !strings.HasSuffix(name, opSuffix) {
			continue
		}
		d := h.Delta(prev.Histograms[name])
		us := func(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }
		rows = append(rows, opRow{
			Op:    strings.TrimSuffix(strings.TrimPrefix(name, opPrefix), opSuffix),
			QPS:   float64(d.Count) / interval.Seconds(),
			P50US: us(d.P50),
			P90US: us(d.Quantile(0.90)),
			P99US: us(d.P99),
			MaxUS: us(int64(d.Max)),
			Total: h.Count,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Op < rows[j].Op })
	return rows
}

// engineCounters picks the counter keys worth a line in the terminal view:
// the paper's overflow/rebase/format-switch activity plus durability.
var engineCounters = []string{
	"secmem.overflows", "secmem.set_resets", "secmem.rebases",
	"secmem.format_switches", "secmem.reencryptions", "secmem.verified_fetches",
	"durable.fsyncs", "durable.checkpoints",
	"durable.ckpt.deltas", "durable.ckpt.compactions", "durable.ckpt.chain",
	"durable.recovery_us",
	"server.accepted", "server.shed",
}

func printSample(w io.Writer, n int, prev, cur obs.Snapshot, pt, ct obs.TraceSnapshot, interval time.Duration) []opRow {
	rows := opRows(prev, cur, interval)
	fmt.Fprintf(w, "--- sample %d @ %s ---\n", n, time.Now().Format("15:04:05"))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "OP\tQPS\tP50\tP90\tP99\tMAX\tTOTAL")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0fus\t%.0fus\t%.0fus\t%.0fus\t%d\n",
			r.Op, r.QPS, r.P50US, r.P90US, r.P99US, r.MaxUS, r.Total)
	}
	_ = tw.Flush()
	var parts []string
	for _, k := range engineCounters {
		if v, ok := cur.Counters[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%d(+%d)", strings.TrimPrefix(k, "secmem."), v, v-prev.Counters[k]))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(w, "engine: %s\n", strings.Join(parts, " "))
	}
	// Per-shard write counts spot load imbalance at a glance.
	var shards []string
	for name, v := range cur.Counters {
		if strings.HasPrefix(name, "shard.") && strings.HasSuffix(name, ".writes") {
			shards = append(shards, fmt.Sprintf("%s=%d", strings.TrimSuffix(strings.TrimPrefix(name, "shard."), ".writes"), v))
		}
	}
	if len(shards) > 0 {
		sort.Strings(shards)
		fmt.Fprintf(w, "shard writes: %s\n", strings.Join(shards, " "))
	}
	var evs []string
	for kind, v := range ct.Counts {
		if d := v - pt.Counts[kind]; d > 0 {
			evs = append(evs, fmt.Sprintf("%s=%.0f/s", kind, float64(d)/interval.Seconds()))
		}
	}
	sort.Strings(evs)
	if len(evs) > 0 {
		fmt.Fprintf(w, "events: %s (dropped %d)\n", strings.Join(evs, " "), ct.Dropped)
	}
	return rows
}

// check probes the telemetry plane and exits nonzero unless the server is
// healthy and visibly doing work: /healthz answers 200, metrics decode with
// at least one op sample, and the tracer has emitted events.
func check(src *httpSource) error {
	body, err := src.get("/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if got := strings.TrimSpace(string(body)); got != "ok" {
		return fmt.Errorf("healthz: body %q, want ok", got)
	}
	snap, err := src.metrics()
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	var opSamples uint64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, opPrefix) {
			opSamples += h.Count
		}
	}
	if opSamples == 0 {
		return fmt.Errorf("metrics: no per-op latency samples recorded")
	}
	ts, err := src.trace()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if ts.Emitted == 0 {
		return fmt.Errorf("trace: no events emitted")
	}
	return nil
}

func main() {
	admin := flag.String("admin", "", "morphserve admin plane address or URL (polls /metricz and /tracez)")
	interval := flag.Duration("interval", time.Second, "poll interval")
	samples := flag.Int("samples", 0, "number of samples to take (0 = until interrupted)")
	jsonOut := flag.String("json", "", "write the final sample's table + cumulative counters as JSON to this file")
	doCheck := flag.Bool("check", false, "probe health and telemetry liveness once and exit (nonzero on failure)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	flag.Parse()

	if *admin == "" {
		log.Fatal("morphscope: -admin is required")
	}
	base := *admin
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	src := &httpSource{base: strings.TrimRight(base, "/"), client: &http.Client{Timeout: *timeout}}

	if *doCheck {
		if err := check(src); err != nil {
			log.Fatalf("morphscope: check %s: %v", src.base, err)
		}
		fmt.Printf("morphscope: %s healthy, telemetry live\n", src.base)
		return
	}

	prev, err := src.metrics()
	if err != nil {
		log.Fatalf("morphscope: %s: %v", src.base, err)
	}
	pt, err := src.trace()
	if err != nil {
		log.Fatalf("morphscope: %s: %v", src.base, err)
	}
	fmt.Printf("morphscope: polling %s every %v\n", src.base, *interval)

	var lastRows []opRow
	var lastSnap obs.Snapshot
	var lastTrace obs.TraceSnapshot
	var lastEvents map[string]float64
	taken := 0
	for *samples <= 0 || taken < *samples {
		time.Sleep(*interval)
		cur, err := src.metrics()
		if err != nil {
			log.Fatalf("morphscope: %s: %v", src.base, err)
		}
		ct, err := src.trace()
		if err != nil {
			log.Fatalf("morphscope: %s: %v", src.base, err)
		}
		lastEvents = map[string]float64{}
		for kind, v := range ct.Counts {
			lastEvents[kind] = float64(v-pt.Counts[kind]) / interval.Seconds()
		}
		taken++
		lastRows = printSample(os.Stdout, taken, prev, cur, pt, ct, *interval)
		lastSnap, lastTrace = cur, ct
		prev, pt = cur, ct
	}

	if *jsonOut != "" {
		rep := jsonReport{
			Source:    src.base,
			IntervalS: interval.Seconds(),
			Samples:   taken,
			Ops:       lastRows,
			Counters:  lastSnap.Counters,
			Gauges:    lastSnap.Gauges,
			Dropped:   lastTrace.Dropped,
		}
		rep.EventsPerS = lastEvents
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("morphscope: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			log.Fatalf("morphscope: %v", err)
		}
		fmt.Printf("morphscope: wrote %s\n", *jsonOut)
	}
}
