// Command morphload is the smokes' traffic generator and integrity gate for
// morphserve: N client goroutines drive concurrent READ/WRITE traffic over
// the wire protocol, each settling every outcome in its own internal/oracle
// history — the one shadow model every harness shares — and the run ends with
// a verdict: verified-integrity counts and resilience counters (retries,
// reconnects, sheds absorbed) as one printed line and the exit status. It does
// not measure the service: throughput and latency are bench/morphbench's (the
// serve_read workload). What it times is what it gates on or nothing else
// reports: -audit's proof overhead, -mix's victim p99, -report's live line.
//
// Clients are built by wire.NewResilient: transient faults — resets, stalls, BUSY
// sheds from admission control — are retried with backoff instead of killing
// the closed loop, and a write whose outcome a fault left unknown is
// indeterminate in the history, so read-back verification accepts either the
// old or the possibly-applied value rather than reporting a false mismatch.
// The store may have a past (a restarted -data-dir): a line nobody has written
// in this run holds whatever its first read finds, and must keep holding it
// until this run's first acknowledged write.
//
// Usage:
//
//	morphload -addr 127.0.0.1:7443 -clients 8 -duration 5s
//	morphload -tamper    # also inject a tamper and require fail-closed detection
package main

import (
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

const lineBytes = secmem.LineBytes

// options is the parsed command line.
type options struct {
	addr        string
	clients     int
	duration    time.Duration
	span        uint64
	writeFrac   float64
	seed        int64
	timeout     time.Duration
	retries     int
	retryWrites bool

	tamper      bool
	audit       bool
	auditEvery  int
	org         string
	mem         uint64
	keyHex      string
	reportEvery time.Duration

	mix, victim, aggressor string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("morphload", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7443", "morphserve address")
	fs.IntVar(&o.clients, "clients", 8, "concurrent client goroutines")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "load phase length")
	fs.Uint64Var(&o.span, "span", 1<<20, "address span to exercise (must fit the server's -mem)")
	fs.Float64Var(&o.writeFrac, "writes", 0.5, "fraction of ops that are writes")
	fs.Int64Var(&o.seed, "seed", 1, "per-client RNG seed base")
	fs.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-attempt deadline")
	fs.IntVar(&o.retries, "retries", 8, "attempts per op before giving up (resilient client)")
	fs.BoolVar(&o.retryWrites, "retry-writes", true, "retry writes whose outcome a transport fault left unknown (safe here: retries rewrite identical content)")
	fs.BoolVar(&o.tamper, "tamper", false, "after the load phase, inject a tamper via the wire TAMPER op and require an IntegrityError (server must run with -tamper)")
	fs.BoolVar(&o.audit, "audit", false, "verify every -audit-every'th read client-side via the PROOF op against the attested epoch root, timing verified-read overhead")
	fs.IntVar(&o.auditEvery, "audit-every", 4, "with -audit: make every Nth read a client-verified PROOF fetch (N >= 1; 1 verifies every read)")
	fs.StringVar(&o.org, "org", "morph128", "server's counter organization (used with -audit)")
	fs.Uint64Var(&o.mem, "mem", 4<<20, "server's protected capacity in bytes (used with -audit)")
	fs.StringVar(&o.keyHex, "key", "", "AES master key in hex (used with -audit; default is the fixed demo key)")
	fs.DurationVar(&o.reportEvery, "report", 0, "periodic one-line progress interval during the load phase (0 disables): qps, p50/p99, retries, sheds from live obs counters")
	fs.StringVar(&o.mix, "mix", "", "adversarial multi-tenant mode: path to the server's -tenants config; runs a solo victim baseline in two halves around the victim vs a greedy aggressor concurrently, and reports the isolation verdict")
	fs.StringVar(&o.victim, "victim", "victim", "with -mix: tenant id of the protected small tenant")
	fs.StringVar(&o.aggressor, "aggressor", "greedy", "with -mix: tenant id of the greedy tenant")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.clients < 1 || o.span/lineBytes < uint64(o.clients) {
		return o, fmt.Errorf("need at least one line per client (span %d, clients %d)", o.span, o.clients)
	}
	if o.audit && o.auditEvery < 1 {
		return o, fmt.Errorf("-audit-every must be >= 1 (got %d)", o.auditEvery)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(o, os.Stdout)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "morphload: %v\n", err)
		os.Exit(1)
	}
}

// run is main after the flags: the load (or the tenant mix), its printed
// verdict on out, and an error if any gate failed.
func run(o options, out io.Writer) error {
	if o.mix != "" {
		return runMix(o, out)
	}

	// Live op latencies shared by every client. The -report ticker deltas
	// them, and the clients' own resilience counters, for interval rates.
	reg := obs.NewRegistry()
	ins := loadInstruments{
		readLat:  reg.Histogram("load.read.latency"),
		writeLat: reg.Histogram("load.write.latency"),
	}

	// -audit: fetch the server's signing key once up front; every worker
	// verifies proofs against the same pinned key.
	var as *auditSetup
	if o.audit {
		var err error
		if as, err = newAuditSetup(o); err != nil {
			return err
		}
		ins.proofLat = reg.Histogram("load.proof.latency")
	}

	// Each client owns a disjoint contiguous range of lines, so it can
	// verify every read against exactly what it last wrote there.
	results := make([]clientResult, o.clients)
	linesPerClient := o.span / lineBytes / uint64(o.clients)
	deadline := time.Now().Add(o.duration)
	clients := make([]*wire.Client, o.clients)
	var wg sync.WaitGroup
	for c := range clients {
		clients[c] = wire.NewResilient(wire.ResilientConfig{
			Addrs:       []string{o.addr},
			Timeout:     o.timeout,
			MaxAttempts: o.retries,
			RetryWrites: o.retryWrites,
			Seed:        o.seed + int64(c),
		})
		wg.Add(1)
		go func(c int, cl *wire.Client) {
			defer wg.Done()
			defer cl.Close()
			results[c] = runClient(cl, deadline, rand.New(rand.NewSource(o.seed+int64(c))),
				uint64(c)*linesPerClient*lineBytes, linesPerClient, o.writeFrac, ins, as)
		}(c, clients[c])
	}
	stopRep := make(chan struct{})
	var repWG sync.WaitGroup
	if o.reportEvery > 0 {
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			progressReporter(out, reg, clients, o.reportEvery, stopRep)
		}()
	}
	wg.Wait()
	close(stopRep)
	repWG.Wait()

	var sum clientResult
	for c := range results {
		sum.add(&results[c])
		if err := results[c].firstErr; err != nil {
			log.Printf("morphload: client %d: first error: %v", c, err)
		}
	}

	// Control connection: server-side full verification, then the tamper.
	ctl := wire.NewResilient(wire.ResilientConfig{
		Addrs: []string{o.addr}, Timeout: o.timeout, MaxAttempts: o.retries, Seed: o.seed - 1,
	})
	defer ctl.Close()
	verifyErr := ctl.Verify()
	if verifyErr != nil {
		log.Printf("morphload: VERIFY failed: %v", verifyErr)
	}
	tamperDetected := o.tamper && injectTamper(ctl)

	fmt.Fprintf(out, "morphload: %d ops in %.1fs; %d verified reads, %d mismatches, %d integrity errors, %d retries, %d reconnects, %d sheds, verify_ok=%v",
		sum.Reads+sum.Writes, o.duration.Seconds(),
		sum.Verified, sum.Mismatches(), sum.SpuriousIntegrity, sum.net.Retries, sum.net.Reconnects, sum.net.Sheds, verifyErr == nil)
	if o.tamper {
		fmt.Fprintf(out, ", tamper_detected=%v", tamperDetected)
	}
	if o.audit {
		proofP50, overhead := percentile(sum.proofLats, 0.50), 0.0
		if plainP50 := percentile(sum.readLats, 0.50); plainP50 > 0 {
			overhead = us(proofP50) / us(plainP50)
		}
		fmt.Fprintf(out, "; %d proof-verified reads (%d failures), proof p50=%.0fus (%.2fx plain read)",
			sum.proofReads, sum.proofFailures, us(proofP50), overhead)
	}
	fmt.Fprintln(out)
	switch {
	case sum.Mismatches() > 0 || sum.SpuriousIntegrity > 0 || sum.Failures > 0 || verifyErr != nil:
		return errors.New("integrity gate failed")
	case o.tamper && !tamperDetected:
		return errors.New("injected tamper was not detected")
	case o.audit && (sum.proofFailures > 0 || sum.proofReads == 0):
		return errors.New("proof gate failed")
	}
	return nil
}

// clientResult is one closed-loop worker's view of its run, or the sum of
// several: the history's tally plus what only this generator tracks.
type clientResult struct {
	oracle.Tally
	proofReads    uint64          // reads done as client-verified PROOF fetches
	proofFailures uint64          // proofs that failed client-side verification
	latencies     []time.Duration // every op (-mix prints the victim's p99)
	readLats      []time.Duration // plain READ only (overhead baseline)
	proofLats     []time.Duration // PROOF fetch + client-side verify
	firstErr      error
	net           wire.ResilientStats
}

func (r *clientResult) add(o *clientResult) {
	r.Tally.Add(o.Tally)
	r.proofReads += o.proofReads
	r.proofFailures += o.proofFailures
	r.latencies = append(r.latencies, o.latencies...)
	r.readLats = append(r.readLats, o.readLats...)
	r.proofLats = append(r.proofLats, o.proofLats...)
	r.net.Retries += o.net.Retries
	r.net.Reconnects += o.net.Reconnects
	r.net.Sheds += o.net.Sheds
}

// auditSetup is the client-side verification context -audit mode threads
// through every worker: the deployment parameters, the data-owner master
// key, the server's signing key fetched once up front, and which reads to
// verify.
type auditSetup struct {
	params proof.Params
	key    []byte
	pub    ed25519.PublicKey
	every  uint64
}

func newAuditSetup(o options) (*auditSetup, error) {
	key := []byte("0123456789abcdef")
	if o.keyHex != "" {
		k, err := hex.DecodeString(o.keyHex)
		if err != nil {
			return nil, fmt.Errorf("-key: %w", err)
		}
		key = k
	}
	enc, tree, err := shard.Organization(o.org)
	if err != nil {
		return nil, err
	}
	boot := wire.NewResilient(wire.ResilientConfig{Addrs: []string{o.addr}, Timeout: o.timeout, MaxAttempts: o.retries, Seed: o.seed - 2})
	defer boot.Close()
	ri, err := boot.Root()
	if err != nil {
		return nil, fmt.Errorf("-audit: fetch signing key: %w", err)
	}
	return &auditSetup{
		params: proof.Params{MemoryBytes: o.mem, Enc: enc, Tree: tree},
		key:    key,
		pub:    ed25519.PublicKey(ri.Pub),
		every:  uint64(o.auditEvery),
	}, nil
}

// loadInstruments are the shared live histograms every client records
// into (histograms are multi-recorder safe).
type loadInstruments struct {
	readLat, writeLat *obs.Histogram
	proofLat          *obs.Histogram // -audit only, else nil (nil-safe)
}

// progressReporter prints one line per tick with interval (not cumulative)
// rates, computed by delta-ing registry snapshots and the clients' summed
// resilience counters.
func progressReporter(out io.Writer, reg *obs.Registry, clients []*wire.Client, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	start := time.Now()
	prev, prevNet := reg.Snapshot(), absorbed(clients)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cur, net := reg.Snapshot(), absorbed(clients)
			rd := cur.Histograms["load.read.latency"].Delta(prev.Histograms["load.read.latency"])
			wd := cur.Histograms["load.write.latency"].Delta(prev.Histograms["load.write.latency"])
			all := rd
			all.Merge(wd)
			secs := every.Seconds()
			fmt.Fprintf(out, "morphload: t=%4.0fs %7.0f ops/s (r %.0f/s, w %.0f/s)  p50=%s p99=%s  retries=%d sheds=%d reconnects=%d\n",
				time.Since(start).Seconds(),
				float64(all.Count)/secs, float64(rd.Count)/secs, float64(wd.Count)/secs,
				time.Duration(all.P50).Round(time.Microsecond), time.Duration(all.P99).Round(time.Microsecond),
				net.Retries-prevNet.Retries, net.Sheds-prevNet.Sheds, net.Reconnects-prevNet.Reconnects)
			prev, prevNet = cur, net
		}
	}
}

// absorbed sums what the clients' retry policies have absorbed so far.
func absorbed(clients []*wire.Client) wire.ResilientStats {
	var sum clientResult
	for _, cl := range clients {
		sum.add(&clientResult{net: cl.Counters()})
	}
	return sum.net
}

// runClient is one closed-loop worker: pick a random owned line, write the
// next pattern of its history or read back and have the history judge it,
// until the deadline. The resilient client absorbs transient faults; an op
// that still fails after its retry budget is counted and the loop keeps going.
// A line with an indeterminate write is quarantined — only read from then on.
func runClient(cl *wire.Client, deadline time.Time, rng *rand.Rand, base uint64, lines uint64, writeFrac float64, ins loadInstruments, as *auditSetup) clientResult {
	var res clientResult
	h := oracle.New(oracle.Unknown)
	timed := func(hist *obs.Histogram, lats *[]time.Duration, op func() error) {
		start := time.Now()
		err := op()
		dur := time.Since(start)
		hist.Record(dur)
		res.latencies = append(res.latencies, dur)
		if lats != nil {
			*lats = append(*lats, dur)
		}
		if err != nil && res.firstErr == nil {
			res.firstErr = err
		}
	}
	for time.Now().Before(deadline) {
		a := base + uint64(rng.Int63n(int64(lines)))*lineBytes
		switch {
		case rng.Float64() < writeFrac && h.Writable(a):
			seq, line := h.Invoke(a)
			timed(ins.writeLat, nil, func() error {
				err := cl.Write(a, line)
				h.Settle(a, seq, err)
				return err
			})
		case as != nil && h.Reads%as.every == as.every-1:
			// Verified read: fetch the full witness and rerun the tree walk
			// client-side, timing the whole thing so the overhead ratio
			// compares like with like (round trip + verification vs round
			// trip alone).
			timed(ins.proofLat, &res.proofLats, func() error {
				got, err := proofRead(cl, a, as)
				h.Observe(a, got, err)
				var me *proof.MismatchError
				if errors.As(err, &me) {
					res.proofFailures++
				}
				if err == nil {
					res.proofReads++
				}
				return err
			})
		default:
			timed(ins.readLat, &res.readLats, func() error {
				got, err := cl.Read(a)
				h.Observe(a, got, err)
				return err
			})
		}
	}
	res.Tally = h.Tally
	res.net = cl.Counters()
	return res
}

// proofRead is the -audit read path: fetch the PROOF witness and verify
// it client-side, returning the recovered plaintext line. The server's
// claimed shard count is adopted per call (the attestation binds it:
// lying about it changes every digest), so auditSetup stays immutable and
// race-free across workers.
func proofRead(cl *wire.Client, addr uint64, as *auditSetup) ([]byte, error) {
	p, err := cl.Proof(addr)
	if err != nil {
		return nil, err
	}
	params := as.params
	if params.Shards == 0 {
		params.Shards = int(p.Shards)
	}
	return p.Verify(params, as.key, as.pub)
}

// injectTamper writes a line, flips a stored ciphertext bit through the
// wire TAMPER op, and requires the following read to fail closed with a
// typed IntegrityError. It runs after VERIFY so verify_ok reflects the
// untampered memory.
func injectTamper(ctl *wire.Client) bool {
	const victim = 0
	if err := ctl.Write(victim, oracle.Fill(victim, 0xA11CE)); err != nil {
		log.Printf("morphload: tamper setup write: %v", err)
		return false
	}
	if err := ctl.Tamper(victim); err != nil {
		log.Printf("morphload: TAMPER op: %v", err)
		return false
	}
	_, err := ctl.Read(victim)
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		log.Printf("morphload: tampered read returned %v, want *secmem.IntegrityError", err)
		return false
	}
	log.Printf("morphload: tamper detected as expected: %v", ie)
	return true
}

// percentile is the nearest-rank q-quantile of lats, which it sorts in place.
func percentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	slices.Sort(lats)
	idx := int(q*float64(len(lats))) - 1
	if idx < 0 {
		idx = 0
	}
	return lats[idx]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
