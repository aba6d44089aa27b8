package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/cluster"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/fault"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

// The cluster subcommand: three replication nodes on loopback, a whole node
// killed mid-load, and the same gate as the fault matrix.
//
// The harness doubles as the failover control plane (it is the one doing the
// killing, so "detecting" the death is not what is under test): after a
// primary kill it waits out the lease, surveys the survivors' routes, promotes
// the most caught-up one at the next fencing epoch, and points the rest at it.
// What IS under test is everything the cluster promises around that dance:
// writes acked before the kill survive it, clients fail over via dial errors
// and MOVED redirects, a lagging candidate catches up from a donor before
// leading, and none of the churn ever surfaces as an integrity alarm.

const (
	clusterShards  = 2
	clusterLease   = 150 * time.Millisecond
	loadDuration   = 700 * time.Millisecond
	killAt         = 150 * time.Millisecond
	probeLine      = uint64(chaosMem - lineBytes) // reserved for the prober
	workerLines    = 256                          // per worker, away from the probe line
	clusterClients = 2
)

// clusterScenario is one cell of the node-kill matrix; each runs `seeds` times
// with distinct seeds.
type clusterScenario struct {
	name        string
	seeds       int
	killPrimary bool // false = kill a replica instead
	latency     bool // route client traffic to the primary through a latency proxy
}

func clusterMatrix(smoke bool) []clusterScenario {
	if smoke {
		return []clusterScenario{
			{name: "kill_replica", seeds: 1},
			{name: "kill_primary", seeds: 2, killPrimary: true},
		}
	}
	return []clusterScenario{
		{name: "kill_replica", seeds: 2},
		{name: "kill_primary", seeds: 4, killPrimary: true},
		{name: "kill_primary_latency", seeds: 2, killPrimary: true, latency: true},
	}
}

// runSeed is the seed of a scenario's i-th run.
func runSeed(seed int64, i int) int64 { return seed + int64(i)*7919 }

// clusterChaos runs the node-kill matrix and prints a row per seeded run.
func clusterChaos(rows *rows, matrix []clusterScenario, seed int64) error {
	for _, sc := range matrix {
		for i := 0; i < sc.seeds; i++ {
			text, fail, err := runClusterRun(sc, runSeed(seed, i))
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sc.name, runSeed(seed, i), err)
			}
			rows.add(sc.name, fmt.Sprintf("seed %-6d %s", runSeed(seed, i), text), fail)
		}
	}
	return nil
}

// chaosNode is one cluster member the harness can kill. Only the goroutine
// that runs the scenario — the control plane — kills nodes and asks who is
// alive.
type chaosNode struct {
	addr  string
	node  *cluster.Node
	stop  func() error
	alive bool
}

// kill stops serving and closes the node — the whole member is gone.
func (cn *chaosNode) kill() {
	if !cn.alive {
		return
	}
	cn.alive = false
	// Halt first: handlers blocked waiting for replica acks must not ride
	// out AckTimeout while the server drain waits for them.
	cn.node.Halt()
	_ = cn.stop()       //morphlint:allow errdiscard a killed node owes nobody a clean shutdown
	_ = cn.node.Close() //morphlint:allow errdiscard a killed node owes nobody a clean shutdown
}

func startChaosNode(shcfg shard.Config, dir string, mutate func(*cluster.Config)) (*chaosNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Self:      ln.Addr().String(),
		Lease:     clusterLease,
		PollWait:  20 * time.Millisecond,
		PollRetry: 2 * time.Millisecond,
	}
	mutate(&cfg)
	n, err := cluster.Open(shcfg, durable.Config{Dir: dir, Sync: durable.SyncAlways}, cfg)
	if err != nil {
		_ = ln.Close() //morphlint:allow errdiscard the open error is the one to report
		return nil, err
	}
	return &chaosNode{addr: cfg.Self, node: n, stop: serve(ln, n, server.Config{}), alive: true}, nil
}

// runClusterRun executes one seeded kill: stand up a 3-node cluster, load it,
// kill the target mid-load, fail over if the target was the primary, then
// audit every history on the final primary.
func runClusterRun(sc clusterScenario, seed int64) (text string, fail, err error) {
	shcfg, err := shardConfig("morph128", clusterShards, chaosMem)
	if err != nil {
		return "", nil, err
	}
	var nodes []*chaosNode
	defer func() {
		for _, cn := range nodes {
			cn.kill()
		}
	}()
	for i := 0; i < 3; i++ {
		dir, err := os.MkdirTemp("", "morphcheck-cluster-*")
		if err != nil {
			return "", nil, err
		}
		defer os.RemoveAll(dir)
		cn, err := startChaosNode(shcfg, dir, func(c *cluster.Config) {
			if i == 0 {
				c.Primary, c.AckReplicas = true, 1
			} else {
				c.Leader = nodes[0].addr
			}
		})
		if err != nil {
			return "", nil, err
		}
		nodes = append(nodes, cn)
	}
	p, replicas := nodes[0], nodes[1:3]
	for _, cn := range nodes {
		// Static membership for failover catch-up donor pulls.
		var peers []string
		for _, o := range nodes {
			if o != cn {
				peers = append(peers, o.addr)
			}
		}
		cn.node.SetPeers(peers)
	}

	// Client seed addresses; the primary optionally sits behind a latency
	// proxy (MOVED redirects carry real node addresses, so rerouted traffic
	// legitimately bypasses it — the proxy perturbs the seed path).
	seedAddrs := []string{p.addr, replicas[0].addr, replicas[1].addr}
	if sc.latency {
		proxy, stopProxy, err := fault.Start(p.addr, fault.Profile{
			Seed: seed, Latency: time.Millisecond, Jitter: time.Millisecond,
		})
		if err != nil {
			return "", nil, err
		}
		defer stopProxy()
		seedAddrs[0] = proxy.Addr().String()
	}

	// Load: the fault matrix's workers, time-bounded so the load spans the
	// kill and the recovery, plus a no-retry prober measuring write
	// availability. The prober's history is the last one.
	stop := make(chan struct{})
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	histories := make([]*oracle.History, clusterClients+1)
	nets := make([]wire.ResilientStats, clusterClients)
	var succAt []time.Time // the prober's acknowledgments
	var wg sync.WaitGroup
	for c := 0; c < clusterClients; c++ {
		base := uint64(c) * workerLines * lineBytes
		addrOf := func(i uint64) uint64 { return base + i*lineBytes }
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := wire.NewResilient(wire.ResilientConfig{
				Addrs:       seedAddrs,
				Timeout:     500 * time.Millisecond,
				MaxAttempts: 40,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  25 * time.Millisecond,
				RetryWrites: true,
				Seed:        seed + int64(c),
			})
			defer cl.Close()
			histories[c], nets[c] = worker(cl, rand.New(rand.NewSource(seed+int64(c)*7919)), workerLines, addrOf, running)
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := wire.NewResilient(wire.ResilientConfig{
			Addrs:       seedAddrs,
			Timeout:     100 * time.Millisecond,
			MaxAttempts: 1, // availability probe: no retries, fast failure
			Seed:        seed - 1,
		})
		defer cl.Close()
		histories[clusterClients], succAt = prober(cl, running)
	}()
	endLoad := func() { close(stop); wg.Wait() }

	// The kill, and (for primary kills) the failover control plane.
	target := replicas[1]
	if sc.killPrimary {
		target = p
	}
	time.Sleep(killAt)
	target.kill()
	killT := time.Now() // the node is fully gone from here
	if sc.killPrimary {
		if err := failOver(nodes, 2); err != nil {
			endLoad()
			return "", nil, fmt.Errorf("failover: %w", err)
		}
	}
	time.Sleep(loadDuration - killAt)
	endLoad()

	load, absorbed := tally(histories, nets)
	// Failover latency: kill to the prober's first acknowledged write.
	var failoverMS float64
	if sc.killPrimary {
		first := firstAfter(succAt, killT)
		if first.IsZero() {
			return "", errors.New("no successful write after the primary kill"), nil
		}
		failoverMS = float64(first.Sub(killT).Microseconds()) / 1000
	}
	text = fmt.Sprintf("%5d ops, %4d acked, %3d retries, %2d reroutes, failover %6.1fms",
		load.Ops(), load.Writes, absorbed.Retries, absorbed.Reroutes, failoverMS)

	// Audit on the final primary over a clean connection.
	final := currentPrimary(nodes)
	if final == nil {
		return text, errors.New("no primary survived the run"), nil
	}
	audit, verify := readBack(final.addr, seed-2, histories)
	return text, gate(load, audit, verify), nil
}

// prober writes its reserved line as fast as failures allow, one attempt per
// write; the gap in its acknowledgment times around a kill is the failover
// time. It has one line and so cannot quarantine it: it keeps invoking, and
// its history admits the last acknowledgment and every failed attempt.
func prober(cl *wire.ResilientClient, more func() bool) (*oracle.History, []time.Time) {
	h := oracle.New(oracle.Zeros)
	var succAt []time.Time
	for more() {
		seq, line := h.Invoke(probeLine)
		err := cl.Write(probeLine, line)
		h.Settle(probeLine, seq, err)
		if err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		succAt = append(succAt, time.Now())
		time.Sleep(time.Millisecond)
	}
	return h, succAt
}

func firstAfter(times []time.Time, t time.Time) time.Time {
	for _, s := range times {
		if s.After(t) {
			return s
		}
	}
	return time.Time{}
}

// failOver is the control plane: wait out the lease, survey survivors,
// promote the most caught-up one, and point the rest at it. Promotion is
// retried because the candidate refuses while its leader lease is fresh.
func failOver(nodes []*chaosNode, newEpoch uint64) error {
	time.Sleep(clusterLease + 30*time.Millisecond)
	var survivors []*chaosNode
	var routes []*wire.RouteInfo
	for _, cn := range nodes {
		if cn.alive {
			survivors = append(survivors, cn)
			routes = append(routes, cn.node.Route())
		}
	}
	if len(survivors) == 0 {
		return errors.New("no survivors")
	}
	min := append([]uint64(nil), routes[0].Marks...)
	for _, ri := range routes[1:] {
		for i, m := range ri.Marks {
			if m > min[i] {
				min[i] = m
			}
		}
	}
	// Prefer a candidate that already covers min; any survivor works — a
	// lagging one catches up from its peers during Promote.
	candidate := survivors[0]
	for i, ri := range routes {
		ok := true
		for j, m := range ri.Marks {
			if m < min[j] {
				ok = false
				break
			}
		}
		if ok {
			candidate = survivors[i]
			break
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := candidate.node.Promote(newEpoch, min)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("promote %s: %w", candidate.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, cn := range survivors {
		if cn != candidate {
			if err := cn.node.Follow(newEpoch, candidate.addr); err != nil {
				return fmt.Errorf("follow %s -> %s: %w", cn.addr, candidate.addr, err)
			}
		}
	}
	return nil
}

func currentPrimary(nodes []*chaosNode) *chaosNode {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, cn := range nodes {
			if cn.alive && cn.node.Route().Role == cluster.RolePrimary {
				return cn
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
