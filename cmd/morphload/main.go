// Command morphload is the smokes' traffic generator and integrity gate for
// morphserve: N client goroutines drive concurrent READ/WRITE traffic over
// the wire protocol, each verifying its own read-back contents against what
// it wrote, and the run ends with a verdict — verified-integrity counts,
// resilience counters (retries, reconnects, sheds absorbed), and the
// server's aggregated engine stats (the paper's overflow / rebase /
// re-encryption metrics) — as the exit status, one printed line and, with
// -out, a JSON file. It does not measure the service: throughput and
// latency are bench/morphbench's (the serve_read workload). What it times is
// what it gates on or nothing else reports: -audit's proof overhead, -mix's
// victim p99, -report's live line.
//
// Clients are wire.ResilientClients: transient faults — resets, stalls,
// BUSY sheds from admission control — are retried with backoff instead
// of killing the closed loop, and a write whose outcome a fault left
// unknown is tracked as indeterminate so read-back verification accepts
// either the old or the possibly-applied value rather than reporting a
// false mismatch.
//
// Usage:
//
//	morphload -addr 127.0.0.1:7443 -clients 8 -duration 5s -out load.json
//	morphload -tamper    # also inject a tamper and require fail-closed detection
package main

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

const lineBytes = secmem.LineBytes

type clientResult struct {
	reads, writes   uint64
	verifiedReads   uint64 // reads whose contents matched expectations
	mismatches      uint64 // silent corruption: wrong contents, no error
	integrityErrors uint64 // *secmem.IntegrityError during normal traffic
	otherErrors     uint64
	proofReads      uint64          // reads done as client-verified PROOF fetches
	proofFailures   uint64          // proofs that failed client-side verification
	latencies       []time.Duration // every op (-mix gates on the victim's p99)
	readLats        []time.Duration // plain READ only (overhead baseline)
	proofLats       []time.Duration // PROOF fetch + client-side verify
	firstErr        error
	net             wire.ResilientStats
}

// auditSetup is the client-side verification context -audit mode threads
// through every worker: the deployment parameters, the data-owner master
// key, and the server's signing key fetched once up front.
type auditSetup struct {
	params proof.Params
	key    []byte
	pub    ed25519.PublicKey
}

// report is the -out file's schema.
type report struct {
	Addr          string  `json:"addr"`
	Clients       int     `json:"clients"`
	DurationSec   float64 `json:"duration_s"`
	SpanBytes     uint64  `json:"span_bytes"`
	WriteFraction float64 `json:"write_fraction"`

	Ops    uint64 `json:"ops"`
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`

	VerifiedReads   uint64 `json:"verified_reads"`
	Mismatches      uint64 `json:"read_mismatches"`
	IntegrityErrors uint64 `json:"integrity_errors"`
	OtherErrors     uint64 `json:"other_errors"`
	VerifyOK        bool   `json:"verify_ok"`

	// Resilience counters summed over all clients: how much transient
	// trouble the closed loop absorbed without dying.
	Retries    uint64 `json:"retries"`
	Reconnects uint64 `json:"reconnects"`
	Sheds      uint64 `json:"sheds"`

	TamperAttempted bool `json:"tamper_attempted"`
	TamperDetected  bool `json:"tamper_detected"`

	// -audit mode: every AuditEvery'th read is a PROOF fetch verified
	// client-side against the attested epoch root; ProofOverhead is the
	// latency ratio of a verified read to a plain read at matching
	// percentiles.
	Audit          bool               `json:"audit"`
	AuditEvery     int                `json:"audit_every,omitempty"`
	ProofReads     uint64             `json:"proof_reads,omitempty"`
	ProofFailures  uint64             `json:"proof_failures,omitempty"`
	ProofLatencyUS map[string]float64 `json:"proof_latency_us,omitempty"`
	ProofOverheadX map[string]float64 `json:"proof_overhead_x,omitempty"`

	ServerStats secmem.Stats `json:"server_stats"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7443", "morphserve address")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	duration := flag.Duration("duration", 5*time.Second, "load phase length")
	span := flag.Uint64("span", 1<<20, "address span to exercise (must fit the server's -mem)")
	writeFrac := flag.Float64("writes", 0.5, "fraction of ops that are writes")
	seed := flag.Int64("seed", 1, "per-client RNG seed base")
	timeout := flag.Duration("timeout", 10*time.Second, "per-attempt deadline")
	retries := flag.Int("retries", 8, "attempts per op before giving up (resilient client)")
	retryWrites := flag.Bool("retry-writes", true, "retry writes whose outcome a transport fault left unknown (safe here: retries rewrite identical content)")
	tamper := flag.Bool("tamper", false, "after the load phase, inject a tamper via the wire TAMPER op and require an IntegrityError (server must run with -tamper)")
	audit := flag.Bool("audit", false, "verify every -audit-every'th read client-side via the PROOF op against the attested epoch root, measuring verified-read overhead")
	auditEvery := flag.Int("audit-every", 4, "with -audit: make every Nth read a client-verified PROOF fetch (N >= 1; 1 verifies every read)")
	org := flag.String("org", "morph128", "server's counter organization (used with -audit)")
	mem := flag.Uint64("mem", 4<<20, "server's protected capacity in bytes (used with -audit)")
	keyHex := flag.String("key", "", "AES master key in hex (used with -audit; default is the fixed demo key)")
	out := flag.String("out", "", "JSON report path (empty = no report, only the printed line and the exit status)")
	reportEvery := flag.Duration("report", 0, "periodic one-line progress interval during the load phase (0 disables): qps, p50/p99, retries, sheds from live obs counters")
	mix := flag.String("mix", "", "adversarial multi-tenant mode: path to the server's -tenants config; runs a solo victim baseline then victim vs greedy aggressor concurrently, and reports the isolation verdict")
	victimID := flag.String("victim", "victim", "with -mix: tenant id of the protected small tenant")
	aggressorID := flag.String("aggressor", "greedy", "with -mix: tenant id of the greedy tenant")
	flag.Parse()

	if *clients < 1 || *span/lineBytes < uint64(*clients) {
		log.Fatalf("morphload: need at least one line per client (span %d, clients %d)", *span, *clients)
	}
	if *audit && *auditEvery < 1 {
		log.Fatalf("morphload: -audit-every must be >= 1 (got %d)", *auditEvery)
	}
	if *mix != "" {
		runMix(mixConfig{
			addr: *addr, configPath: *mix, victim: *victimID, aggressor: *aggressorID,
			clients: *clients, duration: *duration, span: *span, writeFrac: *writeFrac,
			seed: *seed, timeout: *timeout, retries: *retries, retryWrites: *retryWrites,
			out: *out,
		})
		return
	}

	// Live instruments shared by every client: op latencies plus the
	// resilience counters the wire layer mirrors (wire.retries / sheds /
	// reconnects). The -report ticker deltas them for interval rates.
	reg := obs.NewRegistry()
	ins := loadInstruments{
		readLat:  reg.Histogram("load.read.latency"),
		writeLat: reg.Histogram("load.write.latency"),
	}

	// -audit: fetch the server's signing key once up front; every worker
	// verifies proofs against the same pinned key.
	var as *auditSetup
	if *audit {
		key := []byte("0123456789abcdef")
		if *keyHex != "" {
			k, err := hex.DecodeString(*keyHex)
			if err != nil {
				log.Fatalf("morphload: -key: %v", err)
			}
			key = k
		}
		enc, tree, err := shard.Organization(*org)
		if err != nil {
			log.Fatalf("morphload: %v", err)
		}
		boot := wire.NewResilient(wire.ResilientConfig{Addr: *addr, Timeout: *timeout, MaxAttempts: *retries, Seed: *seed - 2})
		ri, err := boot.Root()
		boot.Close()
		if err != nil {
			log.Fatalf("morphload: -audit: fetch signing key: %v", err)
		}
		as = &auditSetup{
			params: proof.Params{MemoryBytes: *mem, Enc: enc, Tree: tree},
			key:    key,
			pub:    ed25519.PublicKey(ri.Pub),
		}
		ins.proofLat = reg.Histogram("load.proof.latency")
	}

	// Each client owns a disjoint contiguous range of lines, so it can
	// verify every read against exactly what it last wrote there.
	results := make([]clientResult, *clients)
	linesPerClient := *span / lineBytes / uint64(*clients)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := wire.NewResilient(wire.ResilientConfig{
				Addr:        *addr,
				Timeout:     *timeout,
				MaxAttempts: *retries,
				RetryWrites: *retryWrites,
				Seed:        *seed + int64(c),
				Obs:         reg,
			})
			defer cl.Close()
			results[c] = runClient(cl, deadline, rand.New(rand.NewSource(*seed+int64(c))),
				uint64(c)*linesPerClient*lineBytes, linesPerClient, *writeFrac, ins, as, *auditEvery, false)
		}(c)
	}
	stopRep := make(chan struct{})
	var repWG sync.WaitGroup
	if *reportEvery > 0 {
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			progressReporter(reg, *reportEvery, stopRep)
		}()
	}
	wg.Wait()
	close(stopRep)
	repWG.Wait()

	rep := report{
		Addr:          *addr,
		Clients:       *clients,
		DurationSec:   duration.Seconds(),
		SpanBytes:     *span,
		WriteFraction: *writeFrac,
	}
	rep.Audit = *audit
	if *audit {
		rep.AuditEvery = *auditEvery
	}
	var plainReads, proofReads []time.Duration
	for c := range results {
		r := &results[c]
		rep.Reads += r.reads
		rep.Writes += r.writes
		rep.VerifiedReads += r.verifiedReads
		rep.Mismatches += r.mismatches
		rep.IntegrityErrors += r.integrityErrors
		rep.OtherErrors += r.otherErrors
		rep.ProofReads += r.proofReads
		rep.ProofFailures += r.proofFailures
		rep.Retries += r.net.Retries
		rep.Reconnects += r.net.Reconnects
		rep.Sheds += r.net.Sheds
		plainReads = append(plainReads, r.readLats...)
		proofReads = append(proofReads, r.proofLats...)
		if r.firstErr != nil {
			log.Printf("morphload: client %d: first error: %v", c, r.firstErr)
		}
	}
	rep.Ops = rep.Reads + rep.Writes
	if *audit {
		rep.ProofLatencyUS, rep.ProofOverheadX = latencyUS(proofReads), map[string]float64{}
		for name, plain := range latencyUS(plainReads) {
			if plain > 0 {
				rep.ProofOverheadX[name] = rep.ProofLatencyUS[name] / plain
			}
		}
	}

	// Control connection: server-side full verification and final stats.
	ctl := wire.NewResilient(wire.ResilientConfig{
		Addr: *addr, Timeout: *timeout, MaxAttempts: *retries, Seed: *seed - 1,
	})
	defer ctl.Close()
	if err := ctl.Verify(); err != nil {
		log.Printf("morphload: VERIFY failed: %v", err)
	} else {
		rep.VerifyOK = true
	}

	if *tamper {
		rep.TamperAttempted = true
		rep.TamperDetected = injectTamper(ctl)
	}

	if st, err := ctl.Stats(); err != nil {
		log.Printf("morphload: STATS failed: %v", err)
	} else {
		rep.ServerStats = st
	}

	if err := writeReport(*out, rep); err != nil {
		log.Fatalf("morphload: %v", err)
	}
	fmt.Printf("morphload: %d ops in %.1fs; %d verified reads, %d mismatches, %d integrity errors, %d retries, %d reconnects, %d sheds, verify_ok=%v",
		rep.Ops, rep.DurationSec,
		rep.VerifiedReads, rep.Mismatches, rep.IntegrityErrors, rep.Retries, rep.Reconnects, rep.Sheds, rep.VerifyOK)
	if rep.TamperAttempted {
		fmt.Printf(", tamper_detected=%v", rep.TamperDetected)
	}
	if rep.Audit {
		fmt.Printf("; %d proof-verified reads (%d failures), proof p50=%.0fus (%.2fx plain read)",
			rep.ProofReads, rep.ProofFailures, rep.ProofLatencyUS["p50"], rep.ProofOverheadX["p50"])
	}
	fmt.Println()
	if rep.Mismatches > 0 || rep.IntegrityErrors > 0 || rep.OtherErrors > 0 || !rep.VerifyOK ||
		(rep.TamperAttempted && !rep.TamperDetected) ||
		(rep.Audit && (rep.ProofFailures > 0 || rep.ProofReads == 0)) {
		os.Exit(1)
	}
}

// loadInstruments are the shared live histograms every client records
// into (histograms are multi-recorder safe).
type loadInstruments struct {
	readLat, writeLat *obs.Histogram
	proofLat          *obs.Histogram // -audit only, else nil (nil-safe)
}

// progressReporter prints one line per tick with interval (not cumulative)
// rates, computed by delta-ing registry snapshots.
func progressReporter(reg *obs.Registry, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	start := time.Now()
	prev := reg.Snapshot()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cur := reg.Snapshot()
			rd := cur.Histograms["load.read.latency"].Delta(prev.Histograms["load.read.latency"])
			wd := cur.Histograms["load.write.latency"].Delta(prev.Histograms["load.write.latency"])
			all := rd
			all.Merge(wd)
			secs := every.Seconds()
			fmt.Printf("morphload: t=%4.0fs %7.0f ops/s (r %.0f/s, w %.0f/s)  p50=%s p99=%s  retries=%d sheds=%d reconnects=%d\n",
				time.Since(start).Seconds(),
				float64(all.Count)/secs, float64(rd.Count)/secs, float64(wd.Count)/secs,
				time.Duration(all.P50).Round(time.Microsecond), time.Duration(all.P99).Round(time.Microsecond),
				cur.Counters["wire.retries"]-prev.Counters["wire.retries"],
				cur.Counters["wire.sheds"]-prev.Counters["wire.sheds"],
				cur.Counters["wire.reconnects"]-prev.Counters["wire.reconnects"])
			prev = cur
		}
	}
}

// runClient is one closed-loop worker: pick a random owned line, write a
// deterministic pattern or read back and verify, until the deadline. The
// resilient client absorbs transient faults; an op that still fails
// after its retry budget is counted and the loop keeps going.
//
// writeFirst makes a worker write each line before ever reading it. The
// tenant mix mode needs this: under per-tenant key domains an untouched
// line still belongs to the default domain, so reading it before claiming
// it with a write is (correctly) denied as an integrity violation.
func runClient(cl *wire.ResilientClient, deadline time.Time, rng *rand.Rand, base uint64, lines uint64, writeFrac float64, ins loadInstruments, as *auditSetup, auditEvery int, writeFirst bool) clientResult {
	var res clientResult
	// seqs holds the last sequence number acknowledged per address; maybe
	// holds every sequence a finally-failed write may or may not have
	// applied (no request IDs, so such a request can even be a zombie that
	// lands later). A line with indeterminate writes is quarantined — only
	// read from then on — and reads accept the acked value or any
	// indeterminate one.
	seqs := make(map[uint64]uint64, lines)
	maybe := make(map[uint64][]uint64, 4)
	acceptable := func(got []byte, a uint64) bool {
		if s, ok := seqs[a]; ok {
			if bytes.Equal(got, fill(a, s)) {
				return true
			}
		} else if bytes.Equal(got, make([]byte, lineBytes)) {
			return true
		}
		for _, m := range maybe[a] {
			if bytes.Equal(got, fill(a, m)) {
				return true
			}
		}
		return false
	}
	var ie *secmem.IntegrityError
	for time.Now().Before(deadline) {
		a := base + uint64(rng.Int63n(int64(lines)))*lineBytes
		writeIt := rng.Float64() < writeFrac
		if writeFirst {
			if _, written := seqs[a]; !written {
				writeIt = true
			}
		}
		if writeIt && len(maybe[a]) == 0 {
			seq := seqs[a] + 1
			start := time.Now()
			err := cl.Write(a, fill(a, seq))
			dur := time.Since(start)
			ins.writeLat.Record(dur)
			res.latencies = append(res.latencies, dur)
			if err != nil {
				recordErr(&res, err, &ie)
				maybe[a] = append(maybe[a], seq)
				continue
			}
			seqs[a] = seq
			res.writes++
		} else if as != nil && auditEvery > 0 && res.reads%uint64(auditEvery) == uint64(auditEvery)-1 {
			// Verified read: fetch the full witness and rerun the tree walk
			// client-side, timing the whole thing so the overhead ratio
			// compares like with like (round trip + verification vs round
			// trip alone).
			start := time.Now()
			got, err := proofRead(cl, a, as)
			dur := time.Since(start)
			ins.proofLat.Record(dur)
			res.latencies = append(res.latencies, dur)
			res.proofLats = append(res.proofLats, dur)
			if err != nil {
				recordErr(&res, err, &ie)
				var me *proof.MismatchError
				if errors.As(err, &me) {
					res.proofFailures++
				}
				continue
			}
			res.reads++
			res.proofReads++
			if acceptable(got, a) {
				res.verifiedReads++
			} else {
				res.mismatches++
			}
		} else {
			start := time.Now()
			got, err := cl.Read(a)
			dur := time.Since(start)
			ins.readLat.Record(dur)
			res.latencies = append(res.latencies, dur)
			res.readLats = append(res.readLats, dur)
			if err != nil {
				recordErr(&res, err, &ie)
				continue
			}
			res.reads++
			if acceptable(got, a) {
				res.verifiedReads++
			} else {
				res.mismatches++
			}
		}
	}
	res.net = cl.Counters()
	return res
}

// proofRead is the -audit read path: fetch the PROOF witness and verify
// it client-side, returning the recovered plaintext line. The server's
// claimed shard count is adopted per call (the attestation binds it:
// lying about it changes every digest), so auditSetup stays immutable and
// race-free across workers.
func proofRead(cl *wire.ResilientClient, addr uint64, as *auditSetup) ([]byte, error) {
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

func recordErr(res *clientResult, err error, ie **secmem.IntegrityError) {
	if res.firstErr == nil {
		res.firstErr = err
	}
	if errors.As(err, ie) {
		res.integrityErrors++
	} else {
		res.otherErrors++
	}
}

// injectTamper writes a line, flips a stored ciphertext bit through the
// wire TAMPER op, and requires the following read to fail closed with a
// typed IntegrityError. It runs after VERIFY so the report's verify_ok
// reflects the untampered memory.
func injectTamper(ctl *wire.ResilientClient) bool {
	const victim = 0
	if err := ctl.Write(victim, fill(victim, 0xA11CE)); err != nil {
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

// fill produces the deterministic line contents for (addr, seq); readers
// recompute it to verify integrity end to end.
func fill(addr, seq uint64) []byte {
	line := make([]byte, lineBytes)
	for i := 0; i < lineBytes; i += 16 {
		binary.LittleEndian.PutUint64(line[i:], addr^seq)
		binary.LittleEndian.PutUint64(line[i+8:], seq*0x9e3779b97f4a7c15+uint64(i))
	}
	return line
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// writeReport writes rep to path as JSON, when a path was given.
func writeReport(path string, rep any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
