package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wire"
)

// runMix drives the adversarial tenant mix (-mix): the victim solo, then with a
// greedy aggressor, then solo again, then a write probe and a range probe
// (writeProbe, rangeProbe). It fails if isolation did: the aggressor was
// never shed, the victim read anything its history does not admit, the
// aggressor's line 0 write changed the victim's, or an address past the
// aggressor's range was not refused with a typed, non-integrity error. The
// victim's p99 ratio is printed; TestMixIsolationCounts gates admission.
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

	// A bound tenant's addresses are relative to its own range, so the two
	// tenants never share a line. The victim's phases still take disjoint
	// partitions — solo [0, span/4), mixed [span/4, span/2) — which keeps
	// phase 2's fresh write-set tracking honest; the aggressor takes
	// [span/2, span) of its range.
	quarterLines := o.span / 4 / lineBytes
	halfLines := o.span / 2 / lineBytes
	if quarterLines < uint64(o.clients) {
		return fmt.Errorf("-mix: span %d too small for %d clients per tenant (need a line per client per quarter)", o.span, o.clients)
	}

	// Phases 1 and 3: the victim alone, half its solo time before the mix and
	// half after, pooled, so one quiet moment of the host is not the baseline.
	first := o.duration / 2
	fmt.Fprintf(out, "morphload: mix phase 1: tenant %q solo for %v\n", o.victim, first)
	solo := runTenantPhase(o, vSpec, 0, quarterLines/uint64(o.clients), time.Now().Add(first), 0)

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

	fmt.Fprintf(out, "morphload: mix phase 3: tenant %q solo for %v\n", o.victim, o.duration-first)
	after := runTenantPhase(o, vSpec, 0, quarterLines/uint64(o.clients), time.Now().Add(o.duration-first), 3000)
	solo.add(&after)

	// Mixed-phase victim p99 over pooled solo p99: printed, not gated.
	soloP99, mixP99 := percentile(solo.latencies, 0.99), percentile(mixed.latencies, 0.99)
	degradation := 0.0
	if soloP99 > 0 {
		degradation = us(mixP99) / us(soloP99)
	}
	victim := solo.Tally
	victim.Add(mixed.Tally)

	// Phase 4: the probes.
	vc, ac := tenantClient(o, vSpec, -3), tenantClient(o, aSpec, -4)
	defer vc.Close()
	defer ac.Close()
	held, err := writeProbe(vc, ac)
	if err != nil {
		log.Printf("morphload: mix: write probe: %v", err)
	}
	size, err := rangeProbe(ac)
	if err != nil {
		log.Printf("morphload: mix: range probe: %v", err)
	}
	refused := err == nil

	mixOK := aggr.net.Sheds > 0 && held && refused &&
		victim.Mismatches() == 0 && victim.SpuriousIntegrity == 0
	fmt.Fprintf(out, "morphload: mix: victim p99 solo=%.0fus (n=%d) mixed=%.0fus (n=%d) (%.2fx), aggressor ops=%d sheds=%d, victim sheds=%d, victim_line_held=%v, past_range_refused=%v (range %#x), mix_ok=%v\n",
		us(soloP99), len(solo.latencies), us(mixP99), len(mixed.latencies), degradation,
		aggr.Reads+aggr.Writes, aggr.net.Sheds, mixed.net.Sheds, held, refused, size, mixOK)
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
			cl := tenantClient(o, spec, seedOff+int64(c))
			defer cl.Close()
			results[c] = runClient(cl, deadline, rand.New(rand.NewSource(o.seed+seedOff+int64(c))),
				base+uint64(c)*linesPer*lineBytes, linesPer, o.writeFrac, loadInstruments{}, nil)
		}(c)
	}
	wg.Wait()
	var sum clientResult
	for c := range results {
		sum.add(&results[c])
	}
	return sum
}

// tenantClient is a resilient client bound to one tenant, seeded at o.seed
// + seedOff.
func tenantClient(o options, spec tenant.Spec, seedOff int64) *wire.Client {
	return wire.NewResilient(wire.ResilientConfig{
		Addrs:        []string{o.addr},
		Timeout:      o.timeout,
		MaxAttempts:  o.retries,
		RetryWrites:  o.retryWrites,
		Seed:         o.seed + seedOff,
		TenantID:     spec.ID,
		TenantSecret: spec.Secret,
	})
}

// writeProbe has the victim write its line 0 and hold the ack, the
// aggressor write its own line 0, and the victim read its line back. It
// reports whether the history admits what the victim read.
func writeProbe(vc, ac *wire.Client) (bool, error) {
	h := oracle.New(oracle.Unknown)
	seq, line := h.Invoke(0)
	err := vc.Write(0, line)
	h.Settle(0, seq, err)
	if err != nil {
		return false, fmt.Errorf("victim write: %w", err)
	}
	if err := ac.Write(0, oracle.Fill(0, seq+1)); err != nil {
		return false, fmt.Errorf("aggressor write: %w", err)
	}
	got, err := vc.Read(0)
	h.Observe(0, got, err)
	if h.Verified != 1 {
		return false, fmt.Errorf("victim reads back its acknowledged line 0: %v (%s)", err, h.Tally)
	}
	return true, nil
}

// rangeProbe finds where the aggressor's range ends, the first address its
// reads are refused at, by bisection between its line 0, which writeProbe
// wrote, and 2^63. A refusal must be a typed *wire.RemoteError, and the one
// at the boundary must say it is the range's (not, say, the capacity's); an
// integrity error (nothing was tampered with) or any other failure fails the
// probe.
func rangeProbe(ac *wire.Client) (size uint64, err error) {
	const top = 1 << 63 / lineBytes
	lo, hi := uint64(0), uint64(top) // lines: lo served, hi refused
	var at *wire.RemoteError         // hi's refusal
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		_, err := ac.Read(mid * lineBytes)
		var re *wire.RemoteError
		switch {
		case err == nil:
			lo = mid
		case errors.As(err, &re):
			hi, at = mid, re
		default:
			return 0, fmt.Errorf("read %#x: %w", mid*lineBytes, err)
		}
	}
	if hi == top || !strings.Contains(at.Msg, "outside its range") {
		return 0, fmt.Errorf("line %d is the first refused, with %v: not a range's end", hi, at)
	}
	return hi * lineBytes, nil
}
