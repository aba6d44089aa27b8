package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

// spanEngine wraps the engine the in-process server calls and, while on,
// records one engine.read / engine.write span per call. One op is in
// flight at a time, so span i is the child of the client's op i.
type spanEngine struct {
	server.Engine

	mu     sync.Mutex
	on     bool
	t0     time.Time
	spans  []spanRec
	writes []bool
}

func (e *spanEngine) Read(addr uint64) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.on {
		return e.Engine.Read(addr)
	}
	start := time.Since(e.t0)
	line, err := e.Engine.Read(addr)
	e.spans = append(e.spans, spanRec{Start: int64(start), End: int64(time.Since(e.t0))})
	e.writes = append(e.writes, false)
	return line, err
}

func (e *spanEngine) Write(addr uint64, line []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.on {
		return e.Engine.Write(addr, line)
	}
	start := time.Since(e.t0)
	err := e.Engine.Write(addr, line)
	e.spans = append(e.spans, spanRec{Start: int64(start), End: int64(time.Since(e.t0))})
	e.writes = append(e.writes, true)
	return err
}

// start turns recording on with room for n spans.
func (e *spanEngine) start(t0 time.Time, n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.on, e.t0 = true, t0
	e.spans, e.writes = make([]spanRec, 0, n), make([]bool, 0, n)
}

func (e *spanEngine) stop() ([]spanRec, []bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.on = false
	return e.spans, e.writes
}

// engine is an in-process store the bench built itself: a bare sharded
// one, or a durable one at the interval flush policy in a directory of its
// own.
type engine struct {
	server.Engine
	sh  *shard.Sharded
	dm  *durable.Memory // nil when volatile
	dir string
}

func openEngine(e *env, durableStore bool) (*engine, error) {
	cfg, err := shardConfig()
	if err != nil {
		return nil, err
	}
	if !durableStore {
		sh, err := shard.New(cfg)
		return &engine{Engine: sh, sh: sh}, err
	}
	dir, err := os.MkdirTemp(e.buildDir, "data-")
	if err != nil {
		return nil, err
	}
	dm, _, err := durable.Open(cfg, durable.Config{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	return &engine{Engine: dm, sh: dm.Sharded(), dm: dm, dir: dir}, nil
}

func (g *engine) flush() { flushShards(g.sh) }

func (g *engine) close() error {
	if g.dm == nil {
		return nil
	}
	return errors.Join(g.dm.Close(), os.RemoveAll(g.dir))
}

// stack is a serving stack built inside this process: engine, server on a
// loopback listener, one client connection.
type stack struct {
	inner  *engine
	eng    *spanEngine
	cl     *wire.Client
	cancel context.CancelFunc
	served chan error
}

func openStack(ctx context.Context, e *env, w *workload) (*stack, error) {
	inner, err := openEngine(e, w.durable)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, inner.close())
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &stack{inner: inner, eng: &spanEngine{Engine: inner}, cancel: cancel, served: make(chan error, 1)}
	srv := server.New(s.eng, server.Config{})
	go func() { s.served <- srv.Serve(sctx, ln) }()
	if s.cl, err = wire.Dial(ln.Addr().String(), 30*time.Second); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

func (s *stack) close() error {
	if s.cl != nil {
		_ = s.cl.Close() // the server side is torn down next
	}
	s.cancel()
	<-s.served // always context.Canceled
	return s.inner.close()
}

// replayer drives a fixed op list through one store from one caller,
// applying the workload's metadata-flush rule.
type replayer struct {
	c          *caller
	flushEvery int
	flush      func()
	reads      int
}

func newReplayer(w *workload, seed int64, span uint64, st store, flush func()) *replayer {
	return &replayer{c: newCaller(w, seed, span, 0, 1, st), flushEvery: w.flushEvery, flush: flush}
}

func (r *replayer) do(o op) (time.Duration, error) {
	d, err := r.c.do(o.write, o.slot)
	if !o.write && r.flushEvery > 0 {
		if r.reads++; r.reads%r.flushEvery == 0 {
			r.flush()
		}
	}
	return d, err
}

// tracedRun is what the fixed-count, single-caller run through the
// in-process stack yields.
type tracedRun struct {
	ops       int
	failed    uint64
	firstErr  error
	untraced  time.Duration // the stream with spans off
	traced    time.Duration // the same stream with spans on
	stats     secmem.Stats  // engine-stat deltas over the untraced pass
	mallocs   uint64        // whole-process, untraced pass
	gcPauseNS uint64
	client    []spanRec // spans-on pass: client.op per op
	engine    []spanRec // its engine.read|write child
	writes    []bool
}

// statsDelta subtracts two engine-stat snapshots field by field.
func statsDelta(after, before secmem.Stats) secmem.Stats {
	sub := func(a, b []uint64) []uint64 {
		out := make([]uint64, len(a))
		for i := range a {
			out[i] = a[i]
			if i < len(b) {
				out[i] -= b[i]
			}
		}
		return out
	}
	return secmem.Stats{
		Reads:           after.Reads - before.Reads,
		Writes:          after.Writes - before.Writes,
		Increments:      sub(after.Increments, before.Increments),
		Overflows:       sub(after.Overflows, before.Overflows),
		Rebases:         sub(after.Rebases, before.Rebases),
		SetResets:       sub(after.SetResets, before.SetResets),
		FormatSwitches:  sub(after.FormatSwitches, before.FormatSwitches),
		Reencryptions:   after.Reencryptions - before.Reencryptions,
		VerifiedFetches: after.VerifiedFetches - before.VerifiedFetches,
	}
}

// runTraced builds the stack in-process, prefills it directly, and sends
// ops through the client twice: spans off (the engine counts, the
// allocation rate and the baseline time) and spans on.
func runTraced(ctx context.Context, e *env, w *workload, seed int64, ops []op) (*tracedRun, error) {
	s, err := openStack(ctx, e, w)
	if err != nil {
		return nil, err
	}
	tr, err := s.run(ctx, e, w, seed, ops)
	return tr, errors.Join(err, s.close())
}

func (s *stack) run(ctx context.Context, e *env, w *workload, seed int64, ops []op) (*tracedRun, error) {
	r := newReplayer(w, seed, e.span(), s.eng, s.inner.flush)
	if err := r.c.prefill(); err != nil {
		return nil, err
	}
	r.c.st = s.cl
	tr := &tracedRun{ops: len(ops), client: make([]spanRec, 0, len(ops))}
	do := func(o op) {
		if _, err := r.do(o); err != nil {
			tr.failed++
			if tr.firstErr == nil {
				tr.firstErr = err
			}
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := s.eng.Stats()
	start := time.Now()
	for _, o := range ops {
		do(o)
	}
	tr.untraced = time.Since(start)
	tr.stats = statsDelta(s.eng.Stats(), before)
	runtime.ReadMemStats(&m1)
	tr.mallocs = m1.Mallocs - m0.Mallocs
	tr.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t0 := time.Now()
	s.eng.start(t0, len(ops))
	for _, o := range ops {
		begin := time.Since(t0)
		do(o)
		tr.client = append(tr.client, spanRec{Start: int64(begin), End: int64(time.Since(t0))})
	}
	tr.traced = time.Since(t0)
	tr.engine, tr.writes = s.eng.stop()
	if len(tr.engine) != len(ops) {
		return nil, fmt.Errorf("traced run: %d engine spans for %d ops", len(tr.engine), len(ops))
	}
	if err := s.cl.Verify(); err != nil {
		tr.failed++
		if tr.firstErr == nil {
			tr.firstErr = fmt.Errorf("verify after the traced run: %w", err)
		}
	}
	if tr.firstErr != nil {
		fmt.Fprintf(os.Stderr, "morphbench: %s: traced run: first failure: %v\n", w.name, tr.firstErr)
	}
	return tr, nil
}

// spanFile is the layout of results/trace-<workload>.json: span i of
// "engine" is the child of span i of "client".
type spanFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Names    [2]string `json:"names"`
	Writes   []bool    `json:"write"`
	Client   []spanRec `json:"client"`
	Engine   []spanRec `json:"engine"`
}

func (tr *tracedRun) writeSpans(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spanFile{
		Workload: workload, Seed: seed,
		Names:  [2]string{"client.op", "engine.read|engine.write"},
		Writes: tr.writes, Client: tr.client, Engine: tr.engine,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}

// spanMetrics reduces the recorded spans: the client's p50 per op type,
// the engine's, and the median self time of everything around the engine.
func (tr *tracedRun) spanMetrics() (clientP50, engineP50 [2]float64, selfP50 float64) {
	var client, engine [2][]int64
	self := make([]int64, len(tr.client))
	for i := range tr.client {
		k := 0
		if tr.writes[i] {
			k = 1
		}
		client[k] = append(client[k], tr.client[i].dur())
		engine[k] = append(engine[k], tr.engine[i].dur())
		self[i] = selfTime(tr.client[i], tr.engine[i])
	}
	for k := range client {
		clientP50[k], engineP50[k] = medianNS(client[k]), medianNS(engine[k])
	}
	return clientP50, engineP50, medianNS(self)
}
