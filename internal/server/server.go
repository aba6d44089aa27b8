// Package server is morphserve's TCP front: one goroutine per connection
// speaking the wire protocol against a secure-memory engine, with a
// connection cap, an in-flight admission gate that sheds overload with
// typed StatusBusy answers, per-frame read/write deadlines with
// slow-loris hardening, a gate-bypassing PING health check, and graceful
// shutdown driven by a context. The engine is an interface so the same
// server runs over a bare shard.Sharded, a durable.Memory or a
// cluster.Node; when the engine is Durable the server also cuts
// checkpoints on request and flushes its journal as it drains.
//
// The server is deliberately fail-closed and crash-free: every malformed
// frame, unknown opcode, or engine error becomes a typed response frame
// (integrity violations keep their level/index/reason), and a hostile peer
// can at worst cost the server one bounded allocation and one connection
// slot until its deadline expires.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/securemem/morphtree/internal/invariant"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
	"github.com/securemem/morphtree/internal/wire"
)

// Engine is the secure-memory surface the server requires. *shard.Sharded
// (volatile), *durable.Memory (crash-consistent) and *cluster.Node
// (replicated) implement it. The method set may shrink, never grow: the
// benchmark defines its own engines against it, so whatever else an engine
// can do is an optional surface — AppendReader, Durable, Prover,
// DomainEngine, ClusterNode — that New looks for once.
type Engine interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, line []byte) error
	VerifyAll() error
	Stats() secmem.Stats
	FlipDataBit(addr uint64, byteOff int, bit uint) bool
}

// AppendReader is the optional engine surface behind a served READ that
// allocates nothing: the verified line is appended to a buffer the connection
// owns instead of returned in a fresh slice (secmem.Memory.AppendRead: dst is
// untouched until the line has verified, and an error returns nil). All three
// real engines implement it. Engine cannot carry the method — it may not
// grow — so an engine without it is served through its Read and one copy.
type AppendReader interface {
	AppendRead(dst []byte, addr uint64) ([]byte, error)
}

// readCopier is the AppendReader of an engine that has only Engine.Read.
type readCopier struct{ eng Engine }

func (r readCopier) AppendRead(dst []byte, addr uint64) ([]byte, error) {
	line, err := r.eng.Read(addr)
	if err != nil {
		return nil, err
	}
	return append(dst, line...), nil
}

// Durable is the optional surface of an engine with a journal and
// checkpoints. OpCheckpoint cuts a snapshot and reports its sequence number;
// Serve forces buffered WAL appends to stable storage after the last
// connection drains; and OnCheckpoint tells the server when a checkpoint was
// cut, by whomever, so each epoch's root lands in the transparency log.
// *durable.Memory and *cluster.Node implement it; *shard.Sharded does not,
// and checkpoint requests against it fail with a StatusError.
type Durable interface {
	Checkpoint() error
	Seq() uint64
	Flush() error
	OnCheckpoint(fn func(seq uint64))
}

// Prover is the optional engine surface behind OpProof and the
// transparency log: building a verifiable-read witness and reporting
// every shard's root digest. Both *shard.Sharded and *durable.Memory
// implement it; proof requests against an engine without it (or a server
// without an Authority) fail with a StatusError.
type Prover interface {
	Prove(addr uint64) (*proof.Proof, error)
	RootDigests() []proof.Digest
}

// DomainEngine is the optional engine surface behind multi-tenant serving:
// reads (appended to dst, as AppendReader's) and writes routed through a
// tenant's key domain, so a line sealed by one tenant fails closed
// (*secmem.IntegrityError) under any other tenant's keys. *shard.Sharded
// implements it after RegisterTenants.
type DomainEngine interface {
	TenantRead(dst []byte, id string, addr uint64) ([]byte, error)
	TenantWrite(id string, addr uint64, line []byte) error
}

// Config tunes the listener's limits.
type Config struct {
	// MaxConns caps concurrent connections (default 64). Excess
	// connections receive a StatusBusy frame and are closed — a shed,
	// not a failure, so resilient clients back off and redial.
	MaxConns int
	// MaxInflight caps requests executing against the engine at once
	// (default 4x GOMAXPROCS). Connections beyond it are admitted — they
	// only cost memory — but their requests wait at the admission gate
	// and are shed with StatusBusy when the wait exceeds ShedWait. That
	// keeps overload an explicit, typed, retryable answer instead of
	// unbounded queueing and timeouts.
	MaxInflight int
	// ShedWait is how long a request may wait for an admission slot
	// before being shed (default 10ms; negative sheds immediately). A
	// small wait absorbs bursts without letting queues build.
	ShedWait time.Duration
	// ReadTimeout bounds waiting for the next request frame on a
	// connection (default 30s); an idle peer is disconnected.
	ReadTimeout time.Duration
	// FrameTimeout bounds reading the remainder of a request frame once
	// its first byte has arrived (default 5s). This is the slow-loris
	// defense: an idle connection may sit for ReadTimeout, but a peer
	// trickling one byte at a time cannot hold a goroutine beyond
	// FrameTimeout per frame.
	FrameTimeout time.Duration
	// WriteTimeout bounds writing one response frame (default 30s).
	WriteTimeout time.Duration
	// AllowTamper enables the OpTamper adversary op. Off by default;
	// only demos and tests that show fail-closed detection turn it on.
	AllowTamper bool
	// Logf, when set, receives background-activity reports (published
	// roots, shutdown flush failures). Nil discards them.
	Logf func(format string, args ...any)
	// Authority, when non-nil and the engine is a Prover, turns on the
	// verifiable-read surface: OpProof responses carry its live root
	// attestation, and OpRoot/OpRootRange serve its transparency log. The
	// server publishes the engine's combined root to the log once at
	// startup and again after every durable checkpoint.
	Authority *proof.Authority
	// Obs, when non-nil, turns on request instrumentation: per-op latency
	// histograms (server.op.<name>.latency), a server.inflight gauge,
	// effective admission-limit gauges (server.limit.*), a pull-time
	// collector for the admission counters.
	Obs *obs.Registry
	// Tracer, when non-nil, receives ReqStart/ReqEnd/Shed events (plus
	// TenantBind/QuotaShed in tenant mode).
	Tracer *obs.Tracer
	// Tenants, when non-nil, turns on multi-tenant serving: connections
	// must bind a tenant with HELLO before any data op, reads and writes
	// route through the tenant's key domain (the engine must implement
	// DomainEngine), and the admission gate enforces each tenant's quotas
	// and weight inside the MaxInflight bound, answering StatusQuota.
	Tenants *tenant.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.ShedWait == 0 {
		c.ShedWait = 10 * time.Millisecond
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	return c
}

// NetStats counts the server's admission-control activity and reports the
// effective limits it runs under (after defaulting), so operators see the
// real admission envelope, not the zero values they configured.
type NetStats struct {
	// Accepted and Rejected count connections (Rejected = over MaxConns).
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	// Shed counts requests answered StatusBusy at the admission gate.
	Shed uint64 `json:"shed"`
	// QuotaShed counts requests answered StatusQuota by the tenant
	// scheduler (always 0 in single-tenant mode).
	QuotaShed uint64 `json:"quota_shed"`
	// Pings counts health checks answered.
	Pings uint64 `json:"pings"`
	// SlowLoris counts connections dropped for trickling a frame slower
	// than FrameTimeout.
	SlowLoris uint64 `json:"slow_loris"`
	// MaxConns and MaxInflight are the effective admission limits after
	// defaulting (MaxInflight defaults to 4x GOMAXPROCS, which the
	// configured value never shows).
	MaxConns    int `json:"max_conns"`
	MaxInflight int `json:"max_inflight"`
	// ShedWaitMicros is the effective admission-gate wait in microseconds.
	ShedWaitMicros int64 `json:"shed_wait_us"`
}

// Server serves wire-protocol requests against a secure-memory engine.
type Server struct {
	eng Engine
	cfg Config
	// sched is the admission gate: MaxInflight slots shared by the
	// configured tenants, or held by the one anonymous tenant when there are
	// none.
	sched *tenant.Scheduler
	// opLat holds the per-opcode latency histogram for every opcode the
	// protocol defines; all nil when Config.Obs is nil. Indexed by the
	// opcode byte so dispatch never takes a map lookup or lock.
	opLat [256]*obs.Histogram
	// inflight mirrors the admission gate's occupancy as a gauge.
	inflight *obs.Gauge
	// The engine's optional surfaces, resolved once in New; each is nil when
	// the engine lacks it, except reader, which falls back to a copy of
	// Engine.Read. prover is also nil without an Authority, and domEng
	// outside tenant mode.
	reader  AppendReader
	durable Durable
	cluster ClusterNode
	prover  Prover
	domEng  DomainEngine
	// Proof-path instruments (nil-safe when Config.Obs is nil).
	proofLat     *obs.Histogram // proof.build.latency
	epochGauge   *obs.Gauge     // proof.epoch (current transparency-log size)
	proofsServed *obs.Counter   // proof.served
	proofsFailed *obs.Counter   // proof.failed

	// tenantIdx maps tenant ids to stable indices for trace-event payloads
	// (nil in single-tenant mode). Immutable after New.
	tenantIdx map[string]uint64

	accepted  atomic.Uint64
	rejected  atomic.Uint64
	shed      atomic.Uint64
	quotaShed atomic.Uint64
	pings     atomic.Uint64
	slowLoris atomic.Uint64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// New constructs a server over an engine (a *shard.Sharded, a
// *durable.Memory or a *cluster.Node).
func New(eng Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	table := cfg.Tenants
	if table == nil {
		table = tenant.Anonymous()
	}
	s := &Server{
		eng: eng,
		cfg: cfg,
		// Cannot fail: NewScheduler checks the capacity, which withDefaults
		// made positive, and nothing else.
		sched: invariant.Must(tenant.NewScheduler(table, tenant.SchedConfig{
			Capacity: cfg.MaxInflight,
			ShedWait: cfg.ShedWait,
		})),
		conns: make(map[net.Conn]struct{}),
	}
	if s.reader, _ = eng.(AppendReader); s.reader == nil {
		s.reader = readCopier{eng}
	}
	s.durable, _ = eng.(Durable)
	s.cluster, _ = eng.(ClusterNode)
	if cfg.Tenants != nil {
		s.domEng, _ = eng.(DomainEngine)
		s.tenantIdx = make(map[string]uint64)
		for i, id := range cfg.Tenants.IDs() {
			s.tenantIdx[id] = uint64(i)
		}
	}
	if cfg.Obs != nil {
		for _, op := range []byte{
			wire.OpRead, wire.OpWrite, wire.OpVerify, wire.OpStats,
			wire.OpTamper, wire.OpCheckpoint,
			wire.OpProof, wire.OpRoot, wire.OpRootRange, wire.OpHello,
		} {
			s.opLat[op] = cfg.Obs.Histogram("server.op." + wire.OpName(op) + ".latency")
		}
		s.inflight = cfg.Obs.Gauge("server.inflight")
		// The effective admission envelope (after defaulting) as gauges:
		// MaxInflight's 4x-GOMAXPROCS default is otherwise invisible to
		// morphscope.
		cfg.Obs.Gauge("server.limit.max_conns").Set(int64(cfg.MaxConns))
		cfg.Obs.Gauge("server.limit.max_inflight").Set(int64(cfg.MaxInflight))
		cfg.Obs.Gauge("server.limit.shed_wait_us").Set(cfg.ShedWait.Microseconds())
		cfg.Obs.RegisterCollector(func(emit func(string, uint64)) {
			ns := s.NetStats()
			emit("server.accepted", ns.Accepted)
			emit("server.rejected", ns.Rejected)
			emit("server.shed", ns.Shed)
			emit("server.quota_shed", ns.QuotaShed)
			emit("server.pings", ns.Pings)
			emit("server.slow_loris", ns.SlowLoris)
		})
		if cfg.Tenants != nil {
			s.sched.RegisterMetrics(cfg.Obs)
		}
	}
	if cfg.Authority != nil {
		if s.prover, _ = eng.(Prover); s.prover != nil {
			if cfg.Obs != nil {
				s.proofLat = cfg.Obs.Histogram("proof.build.latency")
				s.epochGauge = cfg.Obs.Gauge("proof.epoch")
				s.proofsServed = cfg.Obs.Counter("proof.served")
				s.proofsFailed = cfg.Obs.Counter("proof.failed")
			}
			// The log's first entry pins the engine's recovered (or empty)
			// state, so an auditor has a root to verify against before the
			// first checkpoint ever fires.
			s.publishRoot()
			if s.durable != nil {
				s.durable.OnCheckpoint(func(uint64) { s.publishRoot() })
			}
		}
	}
	return s
}

// publishRoot appends the engine's current combined root to the
// transparency log as a new epoch and reflects it in telemetry. Called at
// startup and after every durable checkpoint.
func (s *Server) publishRoot() {
	e := s.cfg.Authority.Publish(proof.CombineRoots(s.prover.RootDigests()))
	s.epochGauge.Set(int64(e.Epoch))
	s.cfg.Tracer.Emit(obs.KindRootPublish, -1, e.Epoch, s.cfg.Authority.Size(), 0)
	s.logf("server: published epoch %d root to transparency log", e.Epoch)
}

// NetStats returns a snapshot of the admission-control counters and the
// effective (post-default) admission limits.
func (s *Server) NetStats() NetStats {
	return NetStats{
		Accepted:       s.accepted.Load(),
		Rejected:       s.rejected.Load(),
		Shed:           s.shed.Load(),
		QuotaShed:      s.quotaShed.Load(),
		Pings:          s.pings.Load(),
		SlowLoris:      s.slowLoris.Load(),
		MaxConns:       s.cfg.MaxConns,
		MaxInflight:    s.cfg.MaxInflight,
		ShedWaitMicros: s.cfg.ShedWait.Microseconds(),
	}
}

// logf reports background activity through Config.Logf, if set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until ctx is canceled, then closes the
// listener and every live connection and waits for the per-connection
// goroutines to drain. It always returns a non-nil error: ctx.Err() on
// shutdown, or the accept failure.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Cancellation closes the listener, which ends the accept loop below.
	shut := func() {
		_ = ln.Close()
		s.closeAll()
	}
	stopShut := context.AfterFunc(ctx, shut)
	defer stopShut()

	var wg sync.WaitGroup
	var serveErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				serveErr = ctx.Err()
			} else {
				serveErr = fmt.Errorf("server: accept: %w", err)
			}
			break
		}
		if !s.track(conn) {
			s.rejected.Add(1)
			s.reject(conn)
			continue
		}
		s.accepted.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
	// Again, or after a failed accept for the first time: a connection accepted
	// as the context ended is tracked by now, whatever the hook saw.
	shut()
	wg.Wait()
	// Every connection has drained; if the engine buffers WAL appends,
	// push them to stable storage so a graceful shutdown loses nothing.
	if s.durable != nil {
		if err := s.durable.Flush(); err != nil {
			s.logf("server: shutdown flush: %v", err)
			return errors.Join(serveErr, fmt.Errorf("server: shutdown flush: %w", err))
		}
	}
	return serveErr
}

// track registers a connection, enforcing MaxConns. It reports whether the
// connection was admitted.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
	_ = conn.Close()
}

func (s *Server) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		_ = conn.Close()
	}
}

// reject sheds an over-limit peer with a typed, retryable answer: a
// StatusBusy frame promises nothing was executed, so resilient clients
// back off and redial instead of treating the cap as a hard failure.
func (s *Server) reject(conn net.Conn) {
	_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_ = wire.WriteFrame(conn, wire.StatusBusy, []byte("connection limit reached; retry with backoff"))
	_ = conn.Close()
}

// serveConn runs one connection's request loop until the peer closes, a
// deadline fires, or the stream turns unframeable.
//
// Two read deadlines guard the loop: an idle peer may sit for
// ReadTimeout between requests, but once a request's first byte arrives
// the whole frame must follow within FrameTimeout. Without the split, a
// slow-loris peer trickling one byte per ReadTimeout holds a goroutine
// and a connection slot indefinitely while never completing a request.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	// The frame buffers, the reader's length scratch and the line a READ is
	// answered from (connState) are per connection and reused across
	// requests: once they have grown to a request's size, a served read or
	// write allocates nothing between the socket and the engine
	// (TestServedOpsDoNotAllocate; `make escapes` for what the compiler
	// moves to the heap unasked).
	fr := wire.NewFrameReader(br)
	fw := wire.NewFrameWriter(bw)
	cs := &connState{}
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
			return
		}
		if _, err := br.Peek(1); err != nil {
			// Clean close, idle timeout, or a dead conn before any byte
			// of the next request: nothing useful to report.
			return
		}
		frameStart := time.Now()
		if err := conn.SetReadDeadline(frameStart.Add(s.cfg.FrameTimeout)); err != nil {
			return
		}
		op, payload, err := fr.ReadFrame()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			// Length prefix was unreadable, oversized, or the body was
			// cut off: the stream cannot be trusted to be framed
			// anymore. Report (best effort) and drop the connection.
			if errors.Is(err, wire.ErrTruncated) && time.Since(frameStart) >= s.cfg.FrameTimeout {
				s.slowLoris.Add(1)
			}
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			status, body := wire.EncodeError(err)
			_ = fw.WriteFrame(status, body)
			_ = bw.Flush()
			return
		}
		status, body := s.dispatch(cs, op, payload)
		if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
			return
		}
		if err := fw.WriteFrame(status, body); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// connState is the per-connection protocol state: the tenant the
// connection bound with HELLO (empty until then, which on a server without
// tenants names the anonymous one) and the line a READ's response frame is
// written from — the body handle returns aliases it until the connection's
// next request. Only the connection's own goroutine touches it.
type connState struct {
	tenant string
	line   [secmem.LineBytes]byte
}

// dispatch applies admission control and routes to handle. Pings bypass
// the gate: liveness must be observable while the server sheds load, or
// health checks would report a busy server as dead. HELLO also bypasses
// it — binding a tenant is connection setup, and shedding it would
// deadlock the client against its own quota. Everything else takes a slot
// from the scheduler, waiting up to ShedWait for one, and is shed — a
// promise that the request was not executed — when none frees: with
// StatusBusy on a server without tenants, whose one anonymous tenant has no
// quota to exceed, and with StatusQuota naming the exhausted resource
// (capacity included) in tenant mode.
func (s *Server) dispatch(cs *connState, op byte, payload []byte) (byte, []byte) {
	if op == wire.OpPing {
		s.pings.Add(1)
		return wire.StatusOK, nil
	}
	if op == wire.OpHello {
		return s.hello(cs, payload)
	}
	if isClusterOp(op) {
		// Cluster control plane: no admission slot (replication must not
		// be shed by client load) and no tenant binding (node-to-node
		// traffic is not tenant traffic).
		return s.handleCluster(op, payload)
	}
	if s.cfg.Tenants != nil && cs.tenant == "" {
		return wire.StatusError, []byte("hello required: this server is multi-tenant")
	}
	if err := s.sched.Acquire(context.Background(), cs.tenant, len(payload)); err != nil {
		if s.cfg.Tenants == nil {
			return s.shedReply(op)
		}
		return s.quotaReply(cs, op, err)
	}
	defer s.sched.Release(cs.tenant)
	return s.execute(cs, op, payload)
}

// execute runs an admitted request through handle, with instrumentation
// when observability is on.
func (s *Server) execute(cs *connState, op byte, payload []byte) (byte, []byte) {
	if s.cfg.Obs == nil && s.cfg.Tracer == nil {
		return s.handle(cs, op, payload)
	}
	s.inflight.Add(1)
	s.cfg.Tracer.Emit(obs.KindReqStart, -1, uint64(op), 0, 0)
	start := time.Now()
	status, body := s.handle(cs, op, payload)
	dur := time.Since(start)
	s.inflight.Add(-1)
	s.opLat[op].Record(dur)
	s.cfg.Tracer.Emit(obs.KindReqEnd, -1, uint64(op), uint64(status), dur)
	return status, body
}

// hello binds the connection to a tenant after checking the HMAC
// proof-of-possession token. Unknown tenants and bad tokens get the same
// answer, so probing cannot enumerate the tenant table.
func (s *Server) hello(cs *connState, payload []byte) (byte, []byte) {
	if s.cfg.Tenants == nil {
		return wire.StatusError, []byte("hello: this server is single-tenant")
	}
	id, token, err := wire.DecodeHello(payload)
	if err != nil {
		return wire.EncodeError(err)
	}
	if !s.cfg.Tenants.Authenticate(id, token) {
		return wire.StatusError, []byte("hello: unknown tenant or bad token")
	}
	cs.tenant = id
	s.cfg.Tracer.Emit(obs.KindTenantBind, -1, s.tenantIdx[id], 0, 0)
	return wire.StatusOK, nil
}

// quotaReply counts and traces a scheduler shed and encodes the typed
// answer (StatusQuota for quota errors; anything else encodes as-is).
func (s *Server) quotaReply(cs *connState, op byte, err error) (byte, []byte) {
	var qe *tenant.QuotaError
	if errors.As(err, &qe) {
		s.quotaShed.Add(1)
		s.cfg.Tracer.Emit(obs.KindQuotaShed, -1, uint64(op), s.tenantIdx[cs.tenant], 0)
	}
	return wire.EncodeError(err)
}

// shedReply counts and traces an admission-gate shed and builds the typed
// StatusBusy answer.
func (s *Server) shedReply(op byte) (byte, []byte) {
	s.shed.Add(1)
	s.cfg.Tracer.Emit(obs.KindShed, -1, uint64(op), 0, 0)
	return wire.StatusBusy, []byte("server at capacity; retry with backoff")
}

// handle dispatches one request. Every path returns a response; unknown
// or malformed requests are StatusError, integrity violations are
// StatusIntegrity, and the connection stays usable (framing is intact).
// In tenant mode (cs.tenant bound), reads and writes route through the
// tenant's key domain, so a cross-tenant read fails closed with
// StatusIntegrity — the same answer tampering gets.
func (s *Server) handle(cs *connState, op byte, payload []byte) (byte, []byte) {
	switch op {
	case wire.OpRead:
		addr, err := wire.DecodeAddr(payload)
		if err != nil {
			return wire.EncodeError(err)
		}
		var line []byte
		if cs.tenant != "" {
			if s.domEng == nil {
				return wire.StatusError, []byte("read: engine has no tenant key domains")
			}
			line, err = s.domEng.TenantRead(cs.line[:0], cs.tenant, addr)
		} else {
			line, err = s.reader.AppendRead(cs.line[:0], addr)
		}
		if err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, line

	case wire.OpWrite:
		addr, line, err := wire.DecodeWrite(payload)
		if err != nil {
			return wire.EncodeError(err)
		}
		if cs.tenant != "" {
			if s.domEng == nil {
				return wire.StatusError, []byte("write: engine has no tenant key domains")
			}
			err = s.domEng.TenantWrite(cs.tenant, addr, line)
		} else {
			err = s.eng.Write(addr, line)
		}
		if err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, nil

	case wire.OpVerify:
		if err := s.eng.VerifyAll(); err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, nil

	case wire.OpStats:
		st := s.eng.Stats()
		if cs.tenant != "" {
			// A bound tenant sees its own row of the tenant table and no
			// other, as /metricz?tenant= shows it only its own counters.
			st.Tenants = map[string]secmem.TenantOps{cs.tenant: st.Tenants[cs.tenant]}
		}
		body, err := wire.EncodeStats(st)
		if err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, body

	case wire.OpTamper:
		if !s.cfg.AllowTamper {
			return wire.StatusError, []byte("tamper op disabled (start server with tampering enabled)")
		}
		addr, err := wire.DecodeAddr(payload)
		if err != nil {
			return wire.EncodeError(err)
		}
		if !s.eng.FlipDataBit(addr, 0, 1) {
			return wire.StatusError, []byte("tamper target not present in store")
		}
		return wire.StatusOK, nil

	case wire.OpCheckpoint:
		if s.durable == nil {
			return wire.StatusError, []byte("checkpoint: server has no durable store (start with -data-dir)")
		}
		if err := s.durable.Checkpoint(); err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, wire.EncodeAddr(s.durable.Seq())

	case wire.OpProof:
		if s.prover == nil {
			return wire.StatusError, []byte("proof: server has no proving engine or signing authority")
		}
		addr, err := wire.DecodeAddr(payload)
		if err != nil {
			return wire.EncodeError(err)
		}
		start := time.Now()
		p, err := s.prover.Prove(addr)
		if err != nil {
			s.proofsFailed.Inc()
			return wire.EncodeError(err)
		}
		p.Epoch, p.Attestation = s.cfg.Authority.Attest(proof.CombineRoots(p.ShardRoots))
		body, err := p.Encode(nil)
		if err != nil {
			s.proofsFailed.Inc()
			return wire.EncodeError(err)
		}
		dur := time.Since(start)
		s.proofLat.Record(dur)
		present := uint64(0)
		for _, line := range p.Chain {
			if line != nil {
				present++
			}
		}
		s.cfg.Tracer.Emit(obs.KindProofBuild, int32(p.Shard), addr, present, dur)
		s.proofsServed.Inc()
		return wire.StatusOK, body

	case wire.OpRoot:
		if s.cfg.Authority == nil {
			return wire.StatusError, []byte("root: server has no signing authority")
		}
		info := proof.RootInfo{
			Pub:  s.cfg.Authority.Public(),
			Head: s.cfg.Authority.Head(),
		}
		if latest, ok := s.cfg.Authority.Latest(); ok {
			info.Latest = &latest
		}
		body, err := info.Encode(nil)
		if err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, body

	case wire.OpRootRange:
		if s.cfg.Authority == nil {
			return wire.StatusError, []byte("root_range: server has no signing authority")
		}
		from, to, err := wire.DecodeRootRange(payload)
		if err != nil {
			return wire.EncodeError(err)
		}
		entries, err := s.cfg.Authority.Entries(from, to)
		if err != nil {
			return wire.EncodeError(err)
		}
		cons, err := s.cfg.Authority.ConsistencyProof(from, to)
		if err != nil {
			return wire.EncodeError(err)
		}
		rr := proof.RangeResult{From: from, To: to, Entries: entries, Proof: cons}
		body, err := rr.Encode(nil)
		if err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, body
	}
	return wire.StatusError, []byte(fmt.Sprintf("unknown opcode %#x", op))
}
