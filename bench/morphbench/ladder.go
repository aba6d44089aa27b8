package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wal"
	"github.com/securemem/morphtree/internal/wire"
)

// The ladder replays a workload's op stream through each layer alone, by
// direct calls from one goroutine, so that adjacent rungs subtract to a
// layer's self time. Microsecond-scale rungs time every op and report the
// median per op type; sub-microsecond rungs (counter codec, WAL codec, wire
// codec) time a whole pass and report its mean, since two clock reads
// would outweigh the op. Every figure is the median over the passes.

// ladderSizes scales the rungs.
type ladderSizes struct {
	passes int
	// ops bounds the ops replayed per pass on the engine and codec rungs,
	// socketOps on the two rungs that pay a round trip per op.
	ops, socketOps int
	// coldReads is how many flush-then-read pairs measure a cold walk,
	// allocOps how many ops an allocation count averages over.
	coldReads, allocOps int
}

func (e *env) ladderSizes() ladderSizes {
	if e.smoke {
		return ladderSizes{passes: 1, ops: 500, socketOps: 200, coldReads: 20, allocOps: 200}
	}
	return ladderSizes{passes: 5, ops: 20_000, socketOps: 5_000, coldReads: 200, allocOps: 2_000}
}

// opTime is a rung's per-op-type medians and their mix-weighted sum.
type opTime struct {
	read, write float64 // ns
	rate        float64 // ops/s of a whole pass, wall clock
}

// mixed weighs the two medians by the stream's op mix: the expected cost of
// one op of the stream (medians of a bimodal mix are not stable, their
// per-type medians are).
func (t opTime) mixed(writeFrac float64) float64 {
	return (1-writeFrac)*t.read + writeFrac*t.write
}

func writeFraction(ops []op) float64 {
	n := 0
	for _, o := range ops {
		if o.write {
			n++
		}
	}
	return float64(n) / float64(max(len(ops), 1))
}

func head(ops []op, n int) []op { return ops[:min(n, len(ops))] }

// mallocs returns how many heap objects f allocated (whole process; the
// ladder runs when nothing else does).
func mallocs(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// perOp is allocations per op as testing.AllocsPerRun reports them: a
// rounded whole number, so that same-seed runs agree exactly.
func perOp(total uint64, n int) float64 {
	return math.Round(float64(total) / float64(max(n, 1)))
}

// timedPasses runs do over ops for each pass and returns the median over
// passes of each op type's median latency.
func timedPasses(passes int, ops []op, do func(op) (time.Duration, error)) (opTime, error) {
	var reads, writes, rates []float64
	for p := 0; p < passes; p++ {
		var lat [2][]int64
		start := time.Now()
		for _, o := range ops {
			d, err := do(o)
			if err != nil {
				return opTime{}, err
			}
			k := 0
			if o.write {
				k = 1
			}
			lat[k] = append(lat[k], int64(d))
		}
		rates = append(rates, float64(len(ops))/time.Since(start).Seconds())
		reads = append(reads, medianNS(lat[0]))
		writes = append(writes, medianNS(lat[1]))
	}
	return opTime{read: median(reads), write: median(writes), rate: median(rates)}, nil
}

// meanPasses times f over n calls per pass and returns the median over
// passes of the mean nanoseconds per call.
func meanPasses(passes, n int, f func(i int)) float64 {
	means := make([]float64, passes)
	for p := range means {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		means[p] = float64(time.Since(start)) / float64(max(n, 1))
	}
	return median(means)
}

// engineRung prefills st and replays ops through it.
func engineRung(e *env, w *workload, seed int64, ops []op, st store, flush func()) (opTime, *replayer, error) {
	r := newReplayer(w, seed, e.span(), st, flush)
	if err := r.c.prefill(); err != nil {
		return opTime{}, nil, err
	}
	t, err := timedPasses(e.ladderSizes().passes, ops, r.do)
	return t, r, err
}

// ladderResult is the ladder's metrics plus the two figures other metrics
// are derived from.
type ladderResult struct {
	m map[string]float64
	// explained is the expected nanoseconds per served op the layers add up
	// to: the workload's engine (every engine rung below it is inside that
	// figure) plus a round trip to a server whose engine answers at once.
	explained float64
	// shardRate is one goroutine's ops/s straight into shard.Sharded.
	shardRate float64
}

// runLadder measures every rung for workload w's stream.
func runLadder(ctx context.Context, e *env, w *workload, seed int64, stream []op) (*ladderResult, error) {
	sz := e.ladderSizes()
	ops := head(stream, sz.ops)
	wf := writeFraction(ops)
	m := map[string]float64{}
	cfg, err := shardConfig()
	if err != nil {
		return nil, err
	}
	if err := counterRungs(m, cfg.Mem, ops, sz); err != nil {
		return nil, err
	}
	memT, err := secmemRung(m, e, w, seed, cfg.Mem, ops)
	if err != nil {
		return nil, err
	}

	sh, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	shT, _, err := engineRung(e, w, seed, ops, sh, func() { flushShards(sh) })
	if err != nil {
		return nil, err
	}
	m["shard.self_ns"] = shT.mixed(wf) - memT.mixed(wf)

	if err := walRung(m, ops, sz); err != nil {
		return nil, err
	}

	du, err := openEngine(e, true)
	if err != nil {
		return nil, err
	}
	duT, _, err := engineRung(e, w, seed, ops, du, du.flush)
	if err = errors.Join(err, du.close()); err != nil {
		return nil, err
	}
	m["durable.write_ns"] = duT.write
	m["durable.self_ns"] = duT.mixed(wf) - shT.mixed(wf) - wf*m["wal.append_ns"]

	if err := wireRungs(m, ops, sz); err != nil {
		return nil, err
	}
	pipeT, tcpT, err := serverRungs(ctx, head(ops, sz.socketOps), sz.passes)
	if err != nil {
		return nil, err
	}
	m["server.pipe_rtt_ns"] = pipeT.mixed(wf)
	m["server.self_ns"] = pipeT.mixed(wf) - m["wire.req_codec_ns"] - m["wire.resp_codec_ns"]
	m["socket.loopback_ns"] = tcpT.mixed(wf) - pipeT.mixed(wf)

	engine := shT.mixed(wf)
	if w.durable {
		engine = duT.mixed(wf)
	}
	return &ladderResult{m: m, explained: engine + tcpT.mixed(wf), shardRate: shT.rate}, nil
}

func flushShards(sh *shard.Sharded) {
	for i := 0; i < sh.NumShards(); i++ {
		sh.Shard(i).FlushMetadataCache()
	}
}

// counterRungs times one block of the encryption-counter organization.
func counterRungs(m map[string]float64, cfg secmem.Config, ops []op, sz ladderSizes) error {
	blk := cfg.Enc.New()
	m["counters.increment_ns"] = meanPasses(sz.passes, len(ops), func(i int) {
		blk.Increment(int(ops[i].slot % uint64(blk.Arity())))
	})
	var raw []byte
	m["counters.encode_ns"] = meanPasses(sz.passes, len(ops), func(int) { raw = blk.Encode() })
	var firstErr error
	m["counters.decode_ns"] = meanPasses(sz.passes, len(ops), func(int) {
		if _, err := cfg.Enc.Decode(raw); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// secmemRung replays the stream through one bare engine over the whole
// capacity, then measures cold reads and allocations on it while warm.
func secmemRung(m map[string]float64, e *env, w *workload, seed int64, cfg secmem.Config, ops []op) (opTime, error) {
	mem, err := secmem.New(cfg)
	if err != nil {
		return opTime{}, err
	}
	t, r, err := engineRung(e, w, seed, ops, mem, mem.FlushMetadataCache)
	if err != nil {
		return opTime{}, err
	}
	m["secmem.read_ns"], m["secmem.write_ns"] = t.read, t.write
	return t, secmemExtras(m, r, mem, ops, e.ladderSizes())
}

// walRung times sealing one write record with the WAL codec.
func walRung(m map[string]float64, ops []op, sz ladderSizes) error {
	codec, err := wal.NewCodec(wal.Options{Key: masterKey})
	if err != nil {
		return err
	}
	var line [lineBytes]byte
	var frame []byte
	var firstErr error
	appendRec := func(i int) {
		o := ops[i%len(ops)]
		var err error
		frame, err = codec.AppendRecord(frame[:0], wal.Record{Kind: wal.KindWrite, LSN: uint64(i + 1), Addr: o.slot * lineBytes, Line: line[:]})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m["wal.append_ns"] = meanPasses(sz.passes, len(ops), appendRec)
	m["wal.append_allocs"] = perOp(mallocs(func() {
		for i := 0; i < sz.allocOps; i++ {
			appendRec(i)
		}
	}), sz.allocOps)
	return firstErr
}

// secmemExtras measures cold reads and allocations on the bare engine the
// secmem rung left warm.
func secmemExtras(m map[string]float64, r *replayer, mem *secmem.Memory, ops []op, sz ladderSizes) error {
	cold := make([]int64, 0, sz.coldReads)
	for i := 0; i < sz.coldReads; i++ {
		mem.FlushMetadataCache()
		d, err := r.c.do(false, ops[i%len(ops)].slot)
		if err != nil {
			return err
		}
		cold = append(cold, int64(d))
	}
	m["secmem.read_cold_ns"] = medianNS(cold)

	var firstErr error
	count := func(write bool) float64 {
		// Warm the lines first so the reads counted are warm reads.
		for i := 0; i < sz.allocOps; i++ {
			if _, err := r.c.do(false, ops[i%len(ops)].slot); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return perOp(mallocs(func() {
			for i := 0; i < sz.allocOps; i++ {
				if _, err := r.c.do(write, ops[i%len(ops)].slot); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}), sz.allocOps)
	}
	m["secmem.read_allocs"] = count(false)
	m["secmem.write_allocs"] = count(true)
	return firstErr
}

// wireRungs measures a request's and a response's trip through the codec
// alone: Append*, FrameWriter, FrameReader, Decode* over a bytes.Buffer.
func wireRungs(m map[string]float64, ops []op, sz ladderSizes) error {
	var buf bytes.Buffer
	fw, fr := wire.NewFrameWriter(&buf), wire.NewFrameReader(&buf)
	var line [lineBytes]byte
	var payload []byte
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	request := func(i int) {
		o, addr := ops[i%len(ops)], ops[i%len(ops)].slot*lineBytes
		if o.write {
			var err error
			payload, err = wire.AppendWrite(payload[:0], addr, line[:])
			note(err)
			note(fw.WriteFrame(wire.OpWrite, payload))
			_, body, err := fr.ReadFrame()
			note(err)
			_, _, err = wire.DecodeWrite(body)
			note(err)
			return
		}
		payload = wire.AppendAddr(payload[:0], addr)
		note(fw.WriteFrame(wire.OpRead, payload))
		_, body, err := fr.ReadFrame()
		note(err)
		_, err = wire.DecodeAddr(body)
		note(err)
	}
	response := func(i int) {
		var body []byte
		if !ops[i%len(ops)].write {
			body = line[:]
		}
		note(fw.WriteFrame(wire.StatusOK, body))
		_, _, err := fr.ReadFrame()
		note(err)
	}
	m["wire.req_codec_ns"] = meanPasses(sz.passes, len(ops), request)
	m["wire.resp_codec_ns"] = meanPasses(sz.passes, len(ops), response)
	m["wire.codec_allocs"] = perOp(mallocs(func() {
		for i := 0; i < sz.allocOps; i++ {
			request(i)
			response(i)
		}
	}), sz.allocOps)
	return firstErr
}

// stubEngine answers every op at once with a constant, so a server over it
// costs only the serving path.
type stubEngine struct{ line [lineBytes]byte }

func (s *stubEngine) Read(uint64) ([]byte, error)        { return s.line[:], nil }
func (s *stubEngine) Write(uint64, []byte) error         { return nil }
func (s *stubEngine) VerifyAll() error                   { return nil }
func (s *stubEngine) Stats() secmem.Stats                { return secmem.Stats{} }
func (s *stubEngine) Save(io.Writer) error               { return nil }
func (s *stubEngine) FlipDataBit(uint64, int, uint) bool { return false }

// pipeListener hands the server the far end of one net.Pipe, then blocks
// until closed: a listener with no kernel under it.
type pipeListener struct {
	conn   chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// serverRungs times round trips to a server over the stub engine: first
// through net.Pipe (no kernel), then over TCP loopback.
func serverRungs(ctx context.Context, ops []op, passes int) (pipeT, tcpT opTime, err error) {
	rung := func(ln net.Listener, dial func() (*wire.Client, error)) (opTime, error) {
		sctx, cancel := context.WithCancel(ctx)
		served := make(chan error, 1)
		go func() { served <- server.New(&stubEngine{}, server.Config{}).Serve(sctx, ln) }()
		defer func() {
			cancel()
			<-served // always context.Canceled
		}()
		cl, err := dial()
		if err != nil {
			return opTime{}, err
		}
		defer cl.Close()
		var line [lineBytes]byte
		return timedPasses(passes, ops, func(o op) (time.Duration, error) {
			start := time.Now()
			var err error
			if o.write {
				err = cl.Write(o.slot*lineBytes, line[:])
			} else {
				_, err = cl.Read(o.slot * lineBytes)
			}
			return time.Since(start), err
		})
	}

	near, far := net.Pipe()
	pl := &pipeListener{conn: make(chan net.Conn, 1), closed: make(chan struct{})}
	pl.conn <- far
	if pipeT, err = rung(pl, func() (*wire.Client, error) { return wire.NewClient(near, 0), nil }); err != nil {
		return pipeT, tcpT, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return pipeT, tcpT, err
	}
	tcpT, err = rung(ln, func() (*wire.Client, error) { return wire.Dial(ln.Addr().String(), 30*time.Second) })
	return pipeT, tcpT, err
}
