package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wire"
)

// runMix drives the adversarial tenant mix (-mix): a solo victim baseline
// phase, then the victim and a greedy aggressor concurrently on disjoint
// address partitions, then a cross-tenant read probe. It fails if isolation
// did: the victim's p99 degraded 2x or more, the aggressor was never shed, the
// victim read anything its history does not admit, or the cross-tenant read
// was not denied.
func runMix(o options, out io.Writer) error {
	reg, err := tenant.LoadConfig(o.mix)
	if err != nil {
		return fmt.Errorf("-mix: %w", err)
	}
	vSpec, ok := reg.Spec(o.victim)
	if !ok {
		return fmt.Errorf("-mix: victim tenant %q not in %s", o.victim, o.mix)
	}
	aSpec, ok := reg.Spec(o.aggressor)
	if !ok {
		return fmt.Errorf("-mix: aggressor tenant %q not in %s", o.aggressor, o.mix)
	}

	// Disjoint partitions, so read-back verification stays exact per phase:
	// victim solo gets [0, span/4), victim mixed gets [span/4, span/2), the
	// aggressor gets [span/2, span). Separate victim partitions per phase
	// keep phase 2's fresh write-set tracking honest.
	quarterLines := o.span / 4 / lineBytes
	halfLines := o.span / 2 / lineBytes
	if quarterLines < uint64(o.clients) {
		return fmt.Errorf("-mix: span %d too small for %d clients per tenant (need a line per client per quarter)", o.span, o.clients)
	}

	// Phase 1: victim alone.
	fmt.Fprintf(out, "morphload: mix phase 1: tenant %q solo for %v\n", o.victim, o.duration)
	solo := runTenantPhase(o, vSpec, 0, quarterLines/uint64(o.clients), time.Now().Add(o.duration), 0)

	// Phase 2: victim and aggressor concurrently, one deadline.
	fmt.Fprintf(out, "morphload: mix phase 2: tenant %q vs %q for %v\n", o.victim, o.aggressor, o.duration)
	mixDeadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	var mixed, aggr clientResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		mixed = runTenantPhase(o, vSpec, o.span/4, quarterLines/uint64(o.clients), mixDeadline, 1000)
	}()
	go func() {
		defer wg.Done()
		aggr = runTenantPhase(o, aSpec, o.span/2, halfLines/uint64(o.clients), mixDeadline, 2000)
	}()
	wg.Wait()

	// The isolation headline: mixed-phase victim p99 over solo p99.
	soloP99, mixP99 := percentile(solo.latencies, 0.99), percentile(mixed.latencies, 0.99)
	degradation := 0.0
	if soloP99 > 0 {
		degradation = us(mixP99) / us(soloP99)
	}
	victim := solo.Tally
	victim.Add(mixed.Tally)

	// Phase 3: cross-tenant probe — the victim writes a line, the
	// aggressor's connection reads the same address. The line's MAC is
	// bound to the victim's key domain, so the aggressor must get a typed
	// IntegrityError, the same fail-closed answer tampering gets.
	denied, perr := crossTenantProbe(o, vSpec, aSpec)
	if perr != nil {
		log.Printf("morphload: mix: cross-tenant probe: %v", perr)
	}

	mixOK := degradation < 2.0 && aggr.net.Sheds > 0 && denied &&
		victim.Mismatches() == 0 && victim.SpuriousIntegrity == 0
	fmt.Fprintf(out, "morphload: mix: victim p99 solo=%.0fus mixed=%.0fus (%.2fx), aggressor ops=%d sheds=%d, victim sheds=%d, cross_tenant_denied=%v, mix_ok=%v\n",
		us(soloP99), us(mixP99), degradation,
		aggr.Reads+aggr.Writes, aggr.net.Sheds, mixed.net.Sheds, denied, mixOK)
	if !mixOK {
		return errors.New("tenant isolation gate failed")
	}
	return nil
}

// runTenantPhase runs o.clients closed-loop workers bound to one tenant over
// one address partition until the deadline, and returns their sum. Each
// worker owns a disjoint slice of lines, so read-back verification stays
// exact.
func runTenantPhase(o options, spec tenant.Spec, base uint64, linesPer uint64, deadline time.Time, seedOff int64) clientResult {
	results := make([]clientResult, o.clients)
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := wire.NewResilient(wire.ResilientConfig{
				Addrs:        []string{o.addr},
				Timeout:      o.timeout,
				MaxAttempts:  o.retries,
				RetryWrites:  o.retryWrites,
				Seed:         o.seed + seedOff + int64(c),
				TenantID:     spec.ID,
				TenantSecret: spec.Secret,
			})
			defer cl.Close()
			results[c] = runClient(cl, deadline, rand.New(rand.NewSource(o.seed+seedOff+int64(c))),
				base+uint64(c)*linesPer*lineBytes, linesPer, o.writeFrac, loadInstruments{}, nil, true)
		}(c)
	}
	wg.Wait()
	var sum clientResult
	for c := range results {
		sum.add(&results[c])
	}
	return sum
}

// crossTenantProbe writes a line as the victim and reads the same address
// over an aggressor-bound connection, reporting whether the read was
// denied with a typed *secmem.IntegrityError.
func crossTenantProbe(o options, vSpec, aSpec tenant.Spec) (bool, error) {
	const probeAddr = 0 // victim solo partition
	vc := wire.NewResilient(wire.ResilientConfig{
		Addrs: []string{o.addr}, Timeout: o.timeout, MaxAttempts: o.retries,
		Seed: o.seed - 3, TenantID: vSpec.ID, TenantSecret: vSpec.Secret,
	})
	defer vc.Close()
	if err := vc.Write(probeAddr, oracle.Fill(probeAddr, 0xC0FFEE)); err != nil {
		return false, fmt.Errorf("victim probe write: %w", err)
	}
	ac := wire.NewResilient(wire.ResilientConfig{
		Addrs: []string{o.addr}, Timeout: o.timeout, MaxAttempts: o.retries,
		Seed: o.seed - 4, TenantID: aSpec.ID, TenantSecret: aSpec.Secret,
	})
	defer ac.Close()
	_, err := ac.Read(probeAddr)
	var ie *secmem.IntegrityError
	if errors.As(err, &ie) {
		return true, nil
	}
	return false, fmt.Errorf("cross-tenant read returned %v, want *secmem.IntegrityError", err)
}
