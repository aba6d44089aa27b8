package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/fault"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

// The chaos subcommand: a sharded engine behind the wire server, the
// internal/fault proxy in front of it, resilient clients hammering through
// the proxy, all in one process. Network faults — resets, mid-frame cuts,
// stalls, partial writes, latency, admission sheds — may cost retries and
// final failures; they may never cost an acknowledged write or raise an
// integrity alarm.

const (
	chaosMem    = 1 << 16 // 1024 lines per scenario engine
	chaosShards = 4
)

// scenario is one cell of the fault matrix: a fault profile, the server's
// admission posture, and a workload sized to make the faults certain to fire.
type scenario struct {
	name    string
	prof    fault.Profile
	clients int
	ops     int           // per client
	timeout time.Duration // per-attempt client deadline; 0 = 2s

	maxInflight int // 0 = server default
	shedWait    time.Duration
	// wrap, if set, stands between the server and the engine: a slow engine
	// forces the admission gate to shed, a lossy one (the tests') proves the
	// audit can fail.
	wrap func(server.Engine) server.Engine

	// A scenario whose injector never fired proves nothing, so each declares
	// which fault counters must be non-zero.
	wantCuts, wantStalls, wantSheds bool
}

// chaosMatrix builds the fault matrix from the run seed. Cut offsets start a
// few frames in (a write request frame is 77 bytes) so every severed
// connection completes some operations first, and the cut cycle sweeps every
// intra-frame byte offset in both directions.
func chaosMatrix(seed int64, smoke bool) []scenario {
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
			wrap: slow(time.Millisecond), wantSheds: true},
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

// chaos runs every scenario of the matrix and prints its row.
func chaos(rows *rows, matrix []scenario, seed int64) error {
	for _, sc := range matrix {
		text, fail, err := runScenario(sc, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		rows.add(sc.name, text, fail)
	}
	return nil
}

// runScenario stands up engine, server and proxy, runs the closed-loop
// workload through the faults, then audits the engine over a clean
// connection. fail is the scenario's verdict; err means it could not run.
func runScenario(sc scenario, seed int64) (text string, fail, err error) {
	shcfg, err := shardConfig("morph128", chaosShards, chaosMem)
	if err != nil {
		return "", nil, err
	}
	eng, err := shard.New(shcfg)
	if err != nil {
		return "", nil, err
	}
	var serveEng server.Engine = eng
	if sc.wrap != nil {
		serveEng = sc.wrap(eng)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	stopServer := serve(ln, serveEng, server.Config{MaxInflight: sc.maxInflight, ShedWait: sc.shedWait})
	srvAddr := ln.Addr().String()
	proxy, stopProxy, err := fault.Start(srvAddr, sc.prof)
	if err != nil {
		_ = stopServer() //morphlint:allow errdiscard the proxy's error is the one to report
		return "", nil, err
	}

	timeout := sc.timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	lines := uint64(chaosMem / lineBytes / sc.clients)
	histories := make([]*oracle.History, sc.clients)
	nets := make([]wire.ResilientStats, sc.clients)
	var wg sync.WaitGroup
	for c := 0; c < sc.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := wire.NewResilient(wire.ResilientConfig{
				Addrs:       []string{proxy.Addr().String()},
				Timeout:     timeout,
				MaxAttempts: 10,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  50 * time.Millisecond,
				RetryWrites: true, // safe: retries rewrite identical content
				Seed:        seed + int64(c),
			})
			defer cl.Close()
			base, left := uint64(c)*lines*lineBytes, sc.ops
			histories[c], nets[c] = worker(cl, rand.New(rand.NewSource(seed+int64(c)*7919)), lines,
				func(i uint64) uint64 { return base + i*lineBytes },
				func() bool { left--; return left >= 0 })
		}(c)
	}
	wg.Wait()
	stopProxy() // stop injecting before the audit
	injected := proxy.Stats()

	load, absorbed := tally(histories, nets)
	audit, verify := readBack(srvAddr, seed-1, histories)
	if err := stopServer(); err != nil {
		return "", nil, err
	}
	text = fmt.Sprintf("%5d ops, %4d acked writes, %3d retries, %3d reconnects, %3d sheds, %3d cuts, %2d stalls",
		load.Ops(), load.Writes, absorbed.Retries, absorbed.Reconnects, absorbed.Sheds, injected.Cuts, injected.Stalls)
	fail = gate(load, audit, verify)
	switch {
	case fail != nil:
	case sc.wantCuts && injected.Cuts == 0:
		fail = errors.New("injector misfire: expected cuts, saw none")
	case sc.wantStalls && injected.Stalls == 0:
		fail = errors.New("injector misfire: expected stalls, saw none")
	case sc.wantSheds && absorbed.Sheds == 0:
		fail = errors.New("injector misfire: expected sheds, saw none")
	}
	return text, fail, nil
}

// worker is the closed loop both matrices run: reads and writes mixed 50/50
// over the lines addrOf maps [0, lines) to, every outcome settled in the
// worker's own history, while more says so. An op that fails after the retry
// budget is counted and the loop keeps going — liveness through faults is part
// of the contract. A quarantined line is only read.
func worker(cl *wire.Client, rng *rand.Rand, lines uint64, addrOf func(uint64) uint64, more func() bool) (*oracle.History, wire.ResilientStats) {
	h := oracle.New(oracle.Zeros)
	for more() {
		a := addrOf(uint64(rng.Int63n(int64(lines))))
		if rng.Float64() < 0.5 && h.Writable(a) {
			seq, line := h.Invoke(a)
			h.Settle(a, seq, cl.Write(a, line))
		} else {
			got, err := cl.Read(a)
			h.Observe(a, got, err)
		}
	}
	return h, cl.Counters()
}

// tally sums what the workers saw and what their clients absorbed.
func tally(histories []*oracle.History, nets []wire.ResilientStats) (load oracle.Tally, absorbed wire.ResilientStats) {
	for _, h := range histories {
		load.Add(h.Tally)
	}
	for _, n := range nets {
		absorbed.Retries += n.Retries
		absorbed.Reconnects += n.Reconnects
		absorbed.Sheds += n.Sheds
		absorbed.Reroutes += n.Reroutes
	}
	return load, absorbed
}

// readBack audits every history over a clean connection straight to addr —
// no proxy, no faults: what is actually in the secure memory? — and has the
// server re-verify its whole tree.
func readBack(addr string, seed int64, histories []*oracle.History) (audit oracle.Tally, verify error) {
	direct := wire.NewResilient(wire.ResilientConfig{Addrs: []string{addr}, Timeout: 10 * time.Second, Seed: seed})
	defer direct.Close()
	for _, h := range histories {
		audit.Add(h.Audit(direct.Read))
	}
	return audit, direct.Verify()
}

// gate is the pair of invariants as one verdict: nothing the workers read
// contradicted their histories, nothing raised an integrity alarm, every line
// read back as its history requires, and the tree still verifies.
func gate(load, audit oracle.Tally, verify error) error {
	if load.Mismatches() == 0 && load.SpuriousIntegrity == 0 && audit.Bad() == 0 && verify == nil {
		return nil
	}
	verified := "ok"
	if verify != nil {
		verified = verify.Error()
	}
	return fmt.Errorf("%d read mismatches, %d spurious integrity errors, audit: %s, tree verify: %s",
		load.Mismatches(), load.SpuriousIntegrity, audit, verified)
}

// slow holds each data op inside the engine for delay, so a tiny MaxInflight
// reliably saturates and the admission gate must shed.
func slow(delay time.Duration) func(server.Engine) server.Engine {
	return func(e server.Engine) server.Engine { return slowEngine{e, delay} }
}

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
