// Command morphserve runs a sharded secure-memory service: N independent
// secmem engines behind a TCP wire protocol (READ / WRITE / VERIFY / STATS
// / CHECKPOINT frames, among others), with the counter organization
// selectable among the designs the paper evaluates.
//
// Usage:
//
//	morphserve -addr 127.0.0.1:7443 -org morph128 -shards 8 -mem 4194304
//	morphserve -data-dir /var/lib/morphserve            # crash-consistent
//	morphserve -data-dir d -fsync interval -snapshot-every 30s
//	morphserve -tamper        # enable the wire-level tamper op for demos
//
// Without -data-dir the store is volatile. With it, every write is
// journaled to a write-ahead log before it is acknowledged, snapshots are
// cut atomically (on the -snapshot-every timer and on CHECKPOINT frames),
// and a restart recovers the pre-crash state — refusing to start if the
// on-disk files show tampering rather than a torn crash tail.
//
// With -cluster (which requires -data-dir) the node joins a replication
// group: the primary streams sealed WAL records to followers, followers
// answer ROUTE so clients can find the leader, and a deposed primary
// fences itself. See DESIGN.md §16.
//
// Drive it with cmd/morphload; stop it with SIGINT/SIGTERM for a graceful
// drain (which also flushes the WAL).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/cluster"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/tenant"
)

// The optional surfaces the server finds on an engine by type assertion,
// pinned here where the engines are chosen: without these, deleting a method
// — (*cluster.Node).Flush, say — still compiles and silently turns the
// shutdown flush off, and a lost AppendRead turns every served read back into
// a read that allocates.
var (
	_ server.AppendReader = (*shard.Sharded)(nil)
	_ server.AppendReader = (*durable.Memory)(nil)
	_ server.AppendReader = (*cluster.Node)(nil)
	_ server.Durable      = (*durable.Memory)(nil)
	_ server.Durable      = (*cluster.Node)(nil)
	_ server.ClusterNode  = (*cluster.Node)(nil)
	_ server.Prover       = (*shard.Sharded)(nil)
	_ server.Prover       = (*durable.Memory)(nil)
	_ server.Prover       = (*cluster.Node)(nil)
	_ server.DomainEngine = (*shard.Sharded)(nil)
)

// store is what morphserve asks of a durable engine besides serving it: the
// background checkpointer's target, the shutdown report and the close.
// *durable.Memory and *cluster.Node are the two.
type store interface {
	ckpt.Target
	Durability() durable.Stats
	Close() error
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		log.Fatalf("morphserve: %v", err)
	}
	if err := o.validate(); err != nil {
		log.Fatalf("morphserve: %v", err)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Fatalf("morphserve: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("morphserve: %v: draining", sig)
		cancel()
	}()
	if err := serve(ctx, o, ln); err != nil {
		log.Fatalf("morphserve: %v", err)
	}
}

// serve runs the service the validated options describe on ln until ctx is
// cancelled, then drains: connections first, then the background
// checkpointer, then the final checkpoint and the close — so nothing is
// written to the data directory after the store is closed. The listener is
// the caller's because a cluster node must know its advertised address
// before it opens, and a test wants a port of the kernel's choosing.
func serve(ctx context.Context, o *options, ln net.Listener) error {
	n := o.shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	shcfg := shard.Config{
		Shards: n,
		Mem: secmem.Config{
			MemoryBytes: o.mem,
			Enc:         o.enc,
			Tree:        o.tree,
			Key:         o.key,
		},
	}

	// One registry + tracer instruments every layer when -admin is set; a
	// nil registry keeps the whole stack on its uninstrumented fast path.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if o.admin != "" {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(o.traceBuf)
		shcfg.Obs = reg
		shcfg.Tracer = tracer
	}

	// The signing authority behind OpProof attestations and the epoch-root
	// transparency log. The default seed is derived from the master key so
	// restarts keep the same identity without extra flag plumbing; operators
	// who want a distinct log identity pass -sign-seed.
	seed := o.seed
	if seed == nil {
		seed = proof.DeriveAuthoritySeed(o.key)
	}
	authority, err := proof.NewAuthority(seed)
	if err != nil {
		return fmt.Errorf("-sign-seed: %w", err)
	}

	var treg *tenant.Registry
	if o.tenants != "" {
		if treg, err = tenant.LoadConfig(o.tenants); err != nil {
			return fmt.Errorf("-tenants: %w", err)
		}
	}

	// eng is the serving surface; st is the same value in durable mode, and
	// cn in cluster mode (a cluster node is durable by construction).
	var eng server.Engine
	var st store
	var cn *cluster.Node
	dcfg := durable.Config{Dir: o.dataDir, Sync: o.sync, KeepEpochs: o.keepEpochs, Obs: reg, Tracer: tracer}
	durability := "volatile"
	switch {
	case o.cluster:
		self := o.clusterSelf
		if self == "" {
			self = ln.Addr().String()
		}
		cn, err = cluster.Open(shcfg, dcfg, cluster.Config{
			Self:        self,
			Peers:       o.peers,
			Primary:     o.clusterJoin == "",
			Leader:      o.clusterJoin,
			Epoch:       o.clusterEpoch,
			Lease:       o.clusterLease,
			AckReplicas: o.clusterAck,
			Logf:        log.Printf,
			Obs:         reg,
			Tracer:      tracer,
		})
		if err != nil {
			return fmt.Errorf("-cluster open %s: %w", o.dataDir, err)
		}
		cn.RegisterMetrics(reg)
		ri := cn.Route()
		log.Printf("morphserve: cluster node %s: role %s, epoch %d, leader %q, peers %v",
			self, ri.Role, ri.Epoch, ri.Leader, o.peers)
		// Unblock writes waiting for replica acks so the drain does not ride
		// out AckTimeout.
		stopHalt := context.AfterFunc(ctx, cn.Halt)
		defer stopHalt()
		eng, st = cn, cn
		durability = fmt.Sprintf("cluster (%s, fsync=%s, lease=%v, ack=%d, delta-every=%v)", o.dataDir, o.fsyncMode, o.clusterLease, o.clusterAck, o.deltaEvery)
	case o.dataDir != "":
		dm, info, err := durable.Open(shcfg, dcfg)
		if err != nil {
			// A recovery-time integrity error means the files were
			// tampered with, not torn: refuse to serve.
			return fmt.Errorf("open %s: %w", o.dataDir, err)
		}
		if info.Fresh {
			log.Printf("morphserve: %s: fresh store, snapshot seq %d", o.dataDir, info.SnapshotSeq)
		} else {
			log.Printf("morphserve: %s: recovered snapshot seq %d + %d deltas + %d WAL records (%d writes, %d torn tails truncated, %d lines re-verified) in %v",
				o.dataDir, info.SnapshotSeq, info.DeltasApplied, info.ReplayedRecords, info.ReplayedWrites,
				info.TornTailCount(), info.SampleVerified, info.Elapsed.Round(time.Millisecond))
		}
		dm.RegisterMetrics(reg)
		eng, st = dm, dm
		durability = fmt.Sprintf("durable (%s, fsync=%s, snapshot-every=%v, delta-every=%v)", o.dataDir, o.fsyncMode, o.snapEvery, o.deltaEvery)
	default:
		sh, err := shard.New(shcfg)
		if err != nil {
			return err
		}
		if treg != nil {
			if err := sh.RegisterTenants(treg.IDs()); err != nil {
				return fmt.Errorf("-tenants: %w", err)
			}
		}
		sh.RegisterMetrics(reg)
		eng = sh
	}

	if treg != nil {
		fmt.Printf("morphserve: multi-tenant: %d tenants %v (HELLO required, per-tenant key domains + quotas)\n",
			len(treg.IDs()), treg.IDs())
	}
	fmt.Printf("morphserve: %s, %d shards, %d MiB, key %s, root log %s, listening on %s (tamper=%v, %s)\n",
		o.org, n, o.mem>>20, obs.KeyDesc(o.key), authority.KeyDesc(), ln.Addr(), o.tamper, durability)
	srv := server.New(eng, server.Config{
		MaxConns:     o.maxConns,
		MaxInflight:  o.maxInflight,
		ShedWait:     o.shedWait,
		ReadTimeout:  o.timeout,
		FrameTimeout: o.frameTimeout,
		WriteTimeout: o.timeout,
		AllowTamper:  o.tamper,
		Logf:         log.Printf,
		Authority:    authority,
		Obs:          reg,
		Tracer:       tracer,
		Tenants:      treg,
	})
	if o.admin != "" {
		aln, err := net.Listen("tcp", o.admin)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		fmt.Printf("morphserve: admin telemetry on http://%s (/metricz /tracez /healthz /rootz /debug/pprof)\n", aln.Addr())
		plane := &adminPlane{reg: reg, tracer: tracer, auth: authority, tamper: o.tamper}
		go func() {
			if err := plane.Serve(ctx, aln); err != nil {
				log.Printf("morphserve: admin plane: %v", err)
			}
		}()
	}

	// The background checkpointer: a full snapshot every -snapshot-every, a
	// delta of the dirty lines every -delta-every, compacted into a full
	// snapshot when the chain grows too long. It starts only now, after
	// server.New has registered the hook every checkpoint fires, and stops
	// before the store's last checkpoint and its close.
	var runner *ckpt.Runner
	if st != nil {
		runner = ckpt.NewRunner(st, o.deltaEvery, o.snapEvery, 0, func(err error) {
			log.Printf("morphserve: background checkpoint: %v", err)
		})
	}
	err = srv.Serve(ctx, ln)
	if ctx.Err() != nil {
		err = nil // the drain that was asked for
	}
	if st != nil {
		runner.Stop()
		if cn == nil {
			// Serve already flushed the WAL; cut a final checkpoint so the
			// next start replays nothing, then release the segment files.
			if err := st.Checkpoint(); err != nil {
				log.Printf("morphserve: final checkpoint: %v", err)
			}
		}
		if err := st.Close(); err != nil {
			log.Printf("morphserve: close store: %v", err)
		}
		d := st.Durability()
		fmt.Printf("morphserve: durability: %d WAL appends, %d fsyncs, %d checkpoints, %d deltas, %d compactions\n",
			d.Appends, d.Fsyncs, d.Checkpoints, d.DeltaCheckpoints, d.Compactions)
	}
	stats := eng.Stats()
	fmt.Printf("morphserve: served %d reads, %d writes, %d verified fetches; overflows %v, rebases %v, re-encryptions %d\n",
		stats.Reads, stats.Writes, stats.VerifiedFetches, stats.Overflows, stats.Rebases, stats.Reencryptions)
	ns := srv.NetStats()
	fmt.Printf("morphserve: admission: %d conns accepted, %d rejected at the cap, %d requests shed, %d quota-shed, %d pings, %d slow-loris drops\n",
		ns.Accepted, ns.Rejected, ns.Shed, ns.QuotaShed, ns.Pings, ns.SlowLoris)
	return err
}
