package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wire"
)

// mixConfig carries the -mix flags into the adversarial-mix driver.
type mixConfig struct {
	addr        string
	configPath  string // the server's -tenants file (has the secrets)
	victim      string
	aggressor   string
	clients     int           // per tenant
	duration    time.Duration // per phase
	span        uint64
	writeFrac   float64
	seed        int64
	timeout     time.Duration
	retries     int
	retryWrites bool
	out         string
}

// mixReport is -mix's -out schema: did weighted fair admission
// protect the small tenant's tail latency while the greedy tenant was
// shed, and did key-domain separation deny the cross-tenant read.
type mixReport struct {
	Addr      string  `json:"addr"`
	Victim    string  `json:"victim"`
	Aggressor string  `json:"aggressor"`
	Clients   int     `json:"clients_per_tenant"`
	PhaseSec  float64 `json:"phase_duration_s"`
	SpanBytes uint64  `json:"span_bytes"`

	// Phase 1: the victim alone (its latency baseline).
	SoloOps       uint64             `json:"solo_ops"`
	SoloLatencyUS map[string]float64 `json:"solo_latency_us"`

	// Phase 2: victim and aggressor concurrently.
	MixVictimOps    uint64             `json:"mix_victim_ops"`
	MixLatencyUS    map[string]float64 `json:"mix_victim_latency_us"`
	MixAggressorOps uint64             `json:"mix_aggressor_ops"`

	// DegradationX is mixed-phase victim p99 over solo p99: the isolation
	// headline (must stay under 2x for the run to pass).
	DegradationX   float64 `json:"victim_p99_degradation_x"`
	AggressorSheds uint64  `json:"aggressor_sheds"`
	VictimSheds    uint64  `json:"victim_sheds"`

	VictimMismatches      uint64 `json:"victim_mismatches"`
	VictimIntegrityErrors uint64 `json:"victim_integrity_errors"`
	VictimOtherErrors     uint64 `json:"victim_other_errors"`

	// CrossTenantDenied: a read of the victim's line over an
	// aggressor-bound connection failed with a typed IntegrityError
	// (key-domain separation, checked end to end over the wire).
	CrossTenantDenied bool `json:"cross_tenant_denied"`

	MixOK bool `json:"mix_ok"`
}

// runMix drives the adversarial tenant mix: a solo victim baseline phase,
// then the victim and a greedy aggressor concurrently on disjoint address
// partitions, then a cross-tenant read probe. It writes the report and
// exits non-zero if isolation failed (victim p99 degraded 2x or more, the
// aggressor was never shed, or the cross-tenant read was not denied).
func runMix(cfg mixConfig) {
	reg, err := tenant.LoadConfig(cfg.configPath)
	if err != nil {
		log.Fatalf("morphload: -mix: %v", err)
	}
	vSpec, ok := reg.Spec(cfg.victim)
	if !ok {
		log.Fatalf("morphload: -mix: victim tenant %q not in %s", cfg.victim, cfg.configPath)
	}
	aSpec, ok := reg.Spec(cfg.aggressor)
	if !ok {
		log.Fatalf("morphload: -mix: aggressor tenant %q not in %s", cfg.aggressor, cfg.configPath)
	}

	// Disjoint partitions, so read-back verification stays exact per phase:
	// victim solo gets [0, span/4), victim mixed gets [span/4, span/2), the
	// aggressor gets [span/2, span). Separate victim partitions per phase
	// keep phase 2's fresh write-set tracking honest.
	quarterLines := cfg.span / 4 / lineBytes
	halfLines := cfg.span / 2 / lineBytes
	if quarterLines < uint64(cfg.clients) {
		log.Fatalf("morphload: -mix: span %d too small for %d clients per tenant (need a line per client per quarter)", cfg.span, cfg.clients)
	}

	rep := mixReport{
		Addr: cfg.addr, Victim: cfg.victim, Aggressor: cfg.aggressor,
		Clients: cfg.clients, PhaseSec: cfg.duration.Seconds(), SpanBytes: cfg.span,
	}

	// Phase 1: victim alone.
	fmt.Printf("morphload: mix phase 1: tenant %q solo for %v\n", cfg.victim, cfg.duration)
	soloDeadline := time.Now().Add(cfg.duration)
	solo := runTenantPhase(cfg, vSpec, 0, quarterLines/uint64(cfg.clients), soloDeadline, 0)
	var soloLats []time.Duration
	for i := range solo {
		r := &solo[i]
		rep.SoloOps += r.reads + r.writes
		rep.VictimMismatches += r.mismatches
		rep.VictimIntegrityErrors += r.integrityErrors
		rep.VictimOtherErrors += r.otherErrors
		soloLats = append(soloLats, r.latencies...)
	}
	rep.SoloLatencyUS = latencyUS(soloLats)

	// Phase 2: victim and aggressor concurrently, one deadline.
	fmt.Printf("morphload: mix phase 2: tenant %q vs %q for %v\n", cfg.victim, cfg.aggressor, cfg.duration)
	mixDeadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	var vRes, aRes []clientResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		vRes = runTenantPhase(cfg, vSpec, cfg.span/4, quarterLines/uint64(cfg.clients), mixDeadline, 1000)
	}()
	go func() {
		defer wg.Done()
		aRes = runTenantPhase(cfg, aSpec, cfg.span/2, halfLines/uint64(cfg.clients), mixDeadline, 2000)
	}()
	wg.Wait()
	var mixLats []time.Duration
	for i := range vRes {
		r := &vRes[i]
		rep.MixVictimOps += r.reads + r.writes
		rep.VictimSheds += r.net.Sheds
		rep.VictimMismatches += r.mismatches
		rep.VictimIntegrityErrors += r.integrityErrors
		rep.VictimOtherErrors += r.otherErrors
		mixLats = append(mixLats, r.latencies...)
	}
	for i := range aRes {
		r := &aRes[i]
		rep.MixAggressorOps += r.reads + r.writes
		rep.AggressorSheds += r.net.Sheds
	}
	rep.MixLatencyUS = latencyUS(mixLats)
	if solo := rep.SoloLatencyUS["p99"]; solo > 0 {
		rep.DegradationX = rep.MixLatencyUS["p99"] / solo
	}

	// Phase 3: cross-tenant probe — the victim writes a line, the
	// aggressor's connection reads the same address. The line's MAC is
	// bound to the victim's key domain, so the aggressor must get a typed
	// IntegrityError, the same fail-closed answer tampering gets.
	denied, perr := crossTenantProbe(cfg, vSpec, aSpec)
	rep.CrossTenantDenied = denied
	if perr != nil {
		log.Printf("morphload: mix: cross-tenant probe: %v", perr)
	}

	rep.MixOK = rep.DegradationX < 2.0 &&
		rep.AggressorSheds > 0 &&
		rep.CrossTenantDenied &&
		rep.VictimMismatches == 0 && rep.VictimIntegrityErrors == 0

	if err := writeReport(cfg.out, rep); err != nil {
		log.Fatalf("morphload: -mix: %v", err)
	}
	fmt.Printf("morphload: mix: victim p99 solo=%.0fus mixed=%.0fus (%.2fx), aggressor ops=%d sheds=%d, victim sheds=%d, cross_tenant_denied=%v, mix_ok=%v\n",
		rep.SoloLatencyUS["p99"], rep.MixLatencyUS["p99"], rep.DegradationX,
		rep.MixAggressorOps, rep.AggressorSheds, rep.VictimSheds, rep.CrossTenantDenied, rep.MixOK)
	if !rep.MixOK {
		os.Exit(1)
	}
}

// runTenantPhase runs cfg.clients closed-loop workers bound to one tenant
// over one address partition until the deadline. Each worker owns a
// disjoint slice of lines, so read-back verification stays exact.
func runTenantPhase(cfg mixConfig, spec tenant.Spec, base uint64, linesPer uint64, deadline time.Time, seedOff int64) []clientResult {
	results := make([]clientResult, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := wire.NewResilient(wire.ResilientConfig{
				Addr:         cfg.addr,
				Timeout:      cfg.timeout,
				MaxAttempts:  cfg.retries,
				RetryWrites:  cfg.retryWrites,
				Seed:         cfg.seed + seedOff + int64(c),
				TenantID:     spec.ID,
				TenantSecret: spec.Secret,
			})
			defer cl.Close()
			results[c] = runClient(cl, deadline, rand.New(rand.NewSource(cfg.seed+seedOff+int64(c))),
				base+uint64(c)*linesPer*lineBytes, linesPer, cfg.writeFrac, loadInstruments{}, nil, 0, true)
		}(c)
	}
	wg.Wait()
	return results
}

// crossTenantProbe writes a line as the victim and reads the same address
// over an aggressor-bound connection, reporting whether the read was
// denied with a typed *secmem.IntegrityError.
func crossTenantProbe(cfg mixConfig, vSpec, aSpec tenant.Spec) (bool, error) {
	const probeAddr = 0 // victim solo partition
	vc := wire.NewResilient(wire.ResilientConfig{
		Addr: cfg.addr, Timeout: cfg.timeout, MaxAttempts: cfg.retries,
		Seed: cfg.seed - 3, TenantID: vSpec.ID, TenantSecret: vSpec.Secret,
	})
	defer vc.Close()
	if err := vc.Write(probeAddr, fill(probeAddr, 0xC0FFEE)); err != nil {
		return false, fmt.Errorf("victim probe write: %w", err)
	}
	ac := wire.NewResilient(wire.ResilientConfig{
		Addr: cfg.addr, Timeout: cfg.timeout, MaxAttempts: cfg.retries,
		Seed: cfg.seed - 4, TenantID: aSpec.ID, TenantSecret: aSpec.Secret,
	})
	defer ac.Close()
	_, err := ac.Read(probeAddr)
	var ie *secmem.IntegrityError
	if errors.As(err, &ie) {
		return true, nil
	}
	return false, fmt.Errorf("cross-tenant read returned %v, want *secmem.IntegrityError", err)
}

// latencyUS summarizes a latency sample at the standard percentiles in
// microseconds (sorts its argument in place).
func latencyUS(lats []time.Duration) map[string]float64 {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	out := map[string]float64{}
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"max", 1.0}} {
		out[p.name] = float64(percentile(lats, p.q)) / float64(time.Microsecond)
	}
	return out
}
