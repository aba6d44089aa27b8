// Command morphchaos drives a client–proxy–server stack through a seeded
// fault matrix and asserts the system's two resilience invariants:
//
//  1. No lost acknowledged writes: any write the client saw acknowledged
//     is present in the secure memory afterwards (or was overwritten by a
//     later write of that client — never silently dropped).
//  2. No spurious integrity alarms: network faults — resets, mid-frame
//     cuts, stalls, partial writes, latency — must never surface as
//     *secmem.IntegrityError. Integrity errors mean tampering, and this
//     harness never tampers.
//
// The stack is fully in-process: a sharded secmem engine behind the wire
// server, the internal/fault chaos proxy in front of it, and
// wire.ResilientClients hammering through the proxy. Every fault is
// derived deterministically from -seed, so a failing run replays exactly.
//
// Usage:
//
//	morphchaos                     # full matrix; the exit status is the result
//	morphchaos -smoke              # reduced matrix for CI (use with -race builds)
//	morphchaos -seed 7 -out f.json # also write every row as JSON
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/fault"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

const (
	lineBytes = secmem.LineBytes
	memBytes  = 1 << 16 // 1024 lines per scenario engine
	shards    = 4
)

// scenario is one cell of the fault matrix: a fault profile, the server's
// admission posture, and a workload sized to make the faults certain to
// fire.
type scenario struct {
	name    string
	prof    fault.Profile
	clients int
	ops     int           // per client
	timeout time.Duration // per-attempt client deadline

	maxInflight int // 0 = server default
	shedWait    time.Duration
	engineDelay time.Duration // per-op engine slowdown, to force gate contention

	// Harness self-checks: a chaos scenario whose injector never fired
	// proves nothing, so scenarios declare which fault counters must be
	// non-zero.
	wantCuts, wantStalls, wantSheds bool
}

// matrix builds the fault matrix from the run seed. Cut offsets start a
// few frames in (a write request frame is 77 bytes) so every severed
// connection completes some operations first, and the cut cycle sweeps
// every intra-frame byte offset in both directions.
func matrix(seed int64, smoke bool) []scenario {
	full := []scenario{
		{name: "baseline", clients: 4, ops: 200},
		{name: "latency",
			prof:    fault.Profile{Seed: seed, Latency: time.Millisecond, Jitter: time.Millisecond},
			clients: 4, ops: 60},
		{name: "chop", // every byte trickles in 3-byte chunks: reassembly stress
			prof:    fault.Profile{Seed: seed, ChunkBytes: 3},
			clients: 4, ops: 120},
		{name: "cuts", // every conn dies a few frames in; offsets sweep a frame both ways
			prof:    fault.Profile{Seed: seed, CutEvery: 1, CutBase: 310, CutCycle: 77},
			clients: 4, ops: 200,
			wantCuts: true},
		{name: "stalls", // reads freeze past the client deadline: timeout + poison path
			prof:    fault.Profile{Seed: seed, StallEvery: 2, StallAfter: 150, StallFor: 400 * time.Millisecond},
			clients: 4, ops: 80, timeout: 150 * time.Millisecond,
			wantStalls: true},
		{name: "shed", // admission control under 8x oversubscription of one slow slot
			clients: 8, ops: 60, maxInflight: 1, shedWait: -1,
			engineDelay: time.Millisecond, wantSheds: true},
		{name: "mayhem", // everything at once against a constrained server
			prof: fault.Profile{
				Seed: seed, Latency: 200 * time.Microsecond, Jitter: 500 * time.Microsecond,
				ChunkBytes: 7, CutEvery: 3, CutBase: 400, CutCycle: 146,
				StallEvery: 5, StallAfter: 200, StallFor: 400 * time.Millisecond,
			},
			clients: 6, ops: 100, timeout: 200 * time.Millisecond,
			maxInflight: 2, wantCuts: true},
	}
	if !smoke {
		return full
	}
	var reduced []scenario
	for _, sc := range full {
		switch sc.name {
		case "baseline", "cuts", "stalls", "shed", "mayhem":
			sc.ops /= 2
			reduced = append(reduced, sc)
		}
	}
	return reduced
}

// scenarioResult is one row of the -out report.
type scenarioResult struct {
	Name    string `json:"name"`
	Clients int    `json:"clients"`

	Ops           uint64 `json:"ops"`
	AckedWrites   uint64 `json:"acked_writes"`
	VerifiedReads uint64 `json:"verified_reads"`

	Mismatches        uint64 `json:"read_mismatches"`
	SpuriousIntegrity uint64 `json:"spurious_integrity_errors"`
	FinalOpFailures   uint64 `json:"final_op_failures"`
	LostAckedWrites   uint64 `json:"lost_acked_writes"`

	Retries    uint64 `json:"retries"`
	Reconnects uint64 `json:"reconnects"`
	Sheds      uint64 `json:"sheds"`

	Proxy    fault.ProxyStats `json:"proxy"`
	VerifyOK bool             `json:"verify_ok"`
	Pass     bool             `json:"pass"`
	Note     string           `json:"note,omitempty"`
}

type report struct {
	Seed      int64            `json:"seed"`
	Smoke     bool             `json:"smoke"`
	Scenarios []scenarioResult `json:"scenarios"`
	Pass      bool             `json:"pass"`
}

func main() {
	seed := flag.Int64("seed", 1, "fault-matrix seed; a failing run replays with the same seed")
	smoke := flag.Bool("smoke", false, "reduced matrix for CI")
	clusterMode := flag.Bool("cluster", false, "node-kill matrix against a 3-node replication cluster")
	out := flag.String("out", "", "JSON report path (empty = no report, only the printed rows and the exit status)")
	flag.Parse()

	if *clusterMode {
		runClusterMode(*seed, *smoke, *out)
		return
	}

	rep := report{Seed: *seed, Smoke: *smoke, Pass: true}
	start := time.Now()
	for _, sc := range matrix(*seed, *smoke) {
		res, err := runScenario(sc, *seed)
		if err != nil {
			log.Fatalf("morphchaos: %s: %v", sc.name, err)
		}
		rep.Scenarios = append(rep.Scenarios, res)
		if !res.Pass {
			rep.Pass = false
		}
		status := "ok"
		if !res.Pass {
			status = "FAIL " + res.Note
		}
		fmt.Printf("morphchaos: %-8s %5d ops, %4d acked writes, %3d retries, %3d reconnects, %3d sheds, %3d cuts, %2d stalls — %s\n",
			sc.name, res.Ops, res.AckedWrites, res.Retries, res.Reconnects, res.Sheds,
			res.Proxy.Cuts, res.Proxy.Stalls, status)
	}

	writeReport(*out, rep)
	verdict := "PASS"
	if !rep.Pass {
		verdict = "FAIL"
	}
	fmt.Printf("morphchaos: %s in %v — 0 lost acked writes and 0 spurious integrity errors required\n",
		verdict, time.Since(start).Round(time.Millisecond))
	if !rep.Pass {
		os.Exit(1)
	}
}

// writeReport writes rep to out as JSON, when a path was given.
func writeReport(out string, rep any) {
	if out == "" {
		return
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("morphchaos: %v", err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		log.Fatalf("morphchaos: %v", err)
	}
}

// runScenario stands up engine + server + proxy, runs the closed-loop
// workload through the faults, then audits the engine over a clean
// connection: every acknowledged write must be present, and the whole
// tree must still verify.
func runScenario(sc scenario, seed int64) (scenarioResult, error) {
	res := scenarioResult{Name: sc.name, Clients: sc.clients}

	enc, tree, err := shard.Organization("morph128")
	if err != nil {
		return res, err
	}
	eng, err := shard.New(shard.Config{
		Shards: shards,
		Mem: secmem.Config{
			MemoryBytes: memBytes,
			Enc:         enc,
			Tree:        tree,
			Key:         []byte("0123456789abcdef"),
		},
	})
	if err != nil {
		return res, err
	}
	var serveEng server.Engine = eng
	if sc.engineDelay > 0 {
		serveEng = slowEngine{Engine: eng, delay: sc.engineDelay}
	}
	srvAddr, stopServer, err := startServer(serveEng, server.Config{
		MaxInflight: sc.maxInflight,
		ShedWait:    sc.shedWait,
	})
	if err != nil {
		return res, err
	}
	defer stopServer()
	proxy, stopProxy, err := fault.Start(srvAddr, sc.prof)
	if err != nil {
		return res, err
	}

	timeout := sc.timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	lines := uint64(memBytes / lineBytes / sc.clients)
	workers := make([]workerResult, sc.clients)
	var wg sync.WaitGroup
	for c := 0; c < sc.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := wire.NewResilient(wire.ResilientConfig{
				Addr:        proxy.Addr().String(),
				Timeout:     timeout,
				MaxAttempts: 10,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  50 * time.Millisecond,
				RetryWrites: true, // safe: retries rewrite identical content
				Seed:        seed + int64(c),
			})
			defer cl.Close()
			workers[c] = worker(cl, rand.New(rand.NewSource(seed+int64(c)*7919)),
				uint64(c)*lines*lineBytes, lines, sc.ops)
		}(c)
	}
	wg.Wait()
	stopProxy() // stop injecting before the audit
	res.Proxy = proxy.Stats()

	for c := range workers {
		w := &workers[c]
		res.Ops += w.reads + w.writes + w.finalFailures
		res.AckedWrites += w.writes
		res.VerifiedReads += w.verified
		res.Mismatches += w.mismatches
		res.SpuriousIntegrity += w.spuriousIntegrity
		res.FinalOpFailures += w.finalFailures
		res.Retries += w.net.Retries
		res.Reconnects += w.net.Reconnects
		res.Sheds += w.net.Sheds
	}

	// Audit over a clean connection straight to the server: no proxy, no
	// faults — what is actually in the secure memory?
	direct := wire.NewResilient(wire.ResilientConfig{Addr: srvAddr, Timeout: 10 * time.Second, Seed: seed - 1})
	defer direct.Close()
	for c := range workers {
		w := &workers[c]
		for a := range w.seqs {
			got, err := direct.Read(a)
			if err != nil || !w.acceptable(got, a) {
				res.LostAckedWrites++
			}
		}
	}
	res.VerifyOK = direct.Verify() == nil

	res.Pass = res.Mismatches == 0 && res.SpuriousIntegrity == 0 &&
		res.LostAckedWrites == 0 && res.VerifyOK
	switch {
	case !res.Pass:
		res.Note = fmt.Sprintf("%d mismatches, %d spurious integrity, %d lost acked writes, verify_ok=%v",
			res.Mismatches, res.SpuriousIntegrity, res.LostAckedWrites, res.VerifyOK)
	case sc.wantCuts && res.Proxy.Cuts == 0:
		res.Pass, res.Note = false, "injector misfire: expected cuts, saw none"
	case sc.wantStalls && res.Proxy.Stalls == 0:
		res.Pass, res.Note = false, "injector misfire: expected stalls, saw none"
	case sc.wantSheds && res.Sheds == 0:
		res.Pass, res.Note = false, "injector misfire: expected sheds, saw none"
	}
	return res, nil
}

// workerResult is one client's view of the run: what it got acknowledged
// (seqs), what a fault left indeterminate (maybe), and what it observed.
//
// maybe holds every sequence a finally-failed write may or may not have
// applied. The protocol has no request IDs, so such a request can also be
// a zombie: still buffered in the network and applied *after* later
// operations complete. The worker therefore quarantines the line — no
// further writes to it this run — because an acknowledgment on a line
// with a live zombie can be overwritten through no fault of the server.
// Reads and the final audit accept the last acked value or any
// indeterminate one.
type workerResult struct {
	seqs  map[uint64]uint64
	maybe map[uint64][]uint64

	reads, writes     uint64 // completed (acknowledged) ops
	verified          uint64
	mismatches        uint64
	spuriousIntegrity uint64
	finalFailures     uint64
	net               wire.ResilientStats
}

// worker runs a closed loop of ops mixed 50/50 read/write over its own
// line range, verifying every read against the acknowledged history. An
// op that fails even after the retry budget counts as a final failure and
// the loop keeps going — liveness through faults is part of the contract.
func worker(cl *wire.ResilientClient, rng *rand.Rand, base, lines uint64, ops int) workerResult {
	w := workerResult{
		seqs:  make(map[uint64]uint64, lines),
		maybe: make(map[uint64][]uint64, 4),
	}
	for op := 0; op < ops; op++ {
		a := base + uint64(rng.Int63n(int64(lines)))*lineBytes
		// Quarantined lines are only read: a zombie request may still be
		// in flight, and a fresh ack it could overwrite would read as a
		// lost write that the server never actually lost.
		if rng.Float64() < 0.5 && len(w.maybe[a]) == 0 {
			seq := w.seqs[a] + 1
			if err := cl.Write(a, fill(a, seq)); err != nil {
				w.record(err)
				w.maybe[a] = append(w.maybe[a], seq)
				continue
			}
			w.seqs[a] = seq
			w.writes++
		} else {
			got, err := cl.Read(a)
			if err != nil {
				w.record(err)
				continue
			}
			w.reads++
			if w.acceptable(got, a) {
				w.verified++
			} else {
				w.mismatches++
			}
		}
	}
	w.net = cl.Counters()
	return w
}

// acceptable reports whether got is a content the acknowledged history
// permits for line a: the last acked value (zeros if never acked), or any
// indeterminate write to the line. No promotion happens on a match — a
// zombie can still flip the line among these values later.
func (w *workerResult) acceptable(got []byte, a uint64) bool {
	if s, ok := w.seqs[a]; ok {
		if bytes.Equal(got, fill(a, s)) {
			return true
		}
	} else if bytes.Equal(got, make([]byte, lineBytes)) {
		return true
	}
	for _, m := range w.maybe[a] {
		if bytes.Equal(got, fill(a, m)) {
			return true
		}
	}
	return false
}

func (w *workerResult) record(err error) {
	var ie *secmem.IntegrityError
	if errors.As(err, &ie) {
		w.spuriousIntegrity++
		return
	}
	w.finalFailures++
}

// slowEngine holds each data op inside the engine for delay, so a tiny
// MaxInflight reliably saturates and the admission gate must shed.
type slowEngine struct {
	server.Engine
	delay time.Duration
}

func (s slowEngine) Read(addr uint64) ([]byte, error) {
	time.Sleep(s.delay)
	return s.Engine.Read(addr)
}

func (s slowEngine) Write(addr uint64, line []byte) error {
	time.Sleep(s.delay)
	return s.Engine.Write(addr, line)
}

// startServer runs the wire server on a loopback listener; the returned
// shutdown cancels its context and waits for the drain.
func startServer(eng server.Engine, cfg server.Config) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- server.New(eng, cfg).Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("morphchaos: server shutdown: %v", err)
		}
	}, nil
}

// fill produces the deterministic line contents for (addr, seq) — the
// same pattern morphload uses.
func fill(addr, seq uint64) []byte {
	line := make([]byte, lineBytes)
	for i := 0; i < lineBytes; i += 16 {
		binary.LittleEndian.PutUint64(line[i:], addr^seq)
		binary.LittleEndian.PutUint64(line[i+8:], seq*0x9e3779b97f4a7c15+uint64(i))
	}
	return line
}
